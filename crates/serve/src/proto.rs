//! The serve wire protocol: request decoding and response framing.
//!
//! Transport framing is one JSON object per `\n`-terminated line, both
//! directions. Requests carry a `verb` plus verb-specific fields; every
//! request may carry a client-chosen `id`, which the matching response
//! echoes verbatim so clients can pipeline freely:
//!
//! ```text
//! → {"verb":"estimate","id":1,"query":{"n":3,"labels":[0,1,0],"edges":[[0,1],[1,2]]},
//!    "deadline_ms":250,"max_filter_steps":1000000}
//! ← {"ok":true,"id":1,"estimate":42.5,"n_substructures":3,"trivially_zero":false,"degraded":false}
//! → {"verb":"estimate","id":2,"query":{"n":0,"labels":[],"edges":[]}}
//! ← {"ok":false,"id":2,"kind":"invalid_query","detail":"query has no vertices"}
//! ```
//!
//! Verbs: `estimate`, `estimate_batch` (a `queries` array, one result per
//! slot; an `estimate` is a batch of one whose reply is `results[0]`
//! unwrapped, with the `id`/`idem` echoes spliced in after `ok`),
//! `reload_model` (`path`), `stats`, `shutdown`. Every failure is a typed
//! error frame `{"ok":false,"id":…,"kind":…,"detail":…}`; the `kind`
//! vocabulary mirrors [`NeurScError`] plus the transport-level kinds
//! `parse`, `too_large`, `overloaded`, `draining` and `crash_suspect` (the
//! request digest is quarantined after being implicated in consecutive
//! worker crashes — see `journal`).
//!
//! Estimate verbs may carry a client-chosen idempotency seqno `idem`
//! (distinct from `id`) and a client session token `session`: the server
//! deduplicates on `(session, idem, replay digest)` — where the replay
//! digest covers the queries *and* the per-request budgets — and echoes
//! `idem` in the reply, so a client that reconnects and retries after a
//! transport failure is not re-processed and cannot mis-attribute a
//! reply. The session token scopes the key: distinct clients reusing the
//! same seqno never collide, and a request without one is scoped to its
//! connection (so its replays do not survive a reconnect). The dedup is
//! best-effort — the server's replay cache is bounded, so a sufficiently
//! late retry may be re-processed; safe for the deterministic, read-only
//! estimate verbs.

use crate::json::{self, Json};
use neursc_core::{EstimateDetail, NeurScError};
use neursc_graph::Graph;
use std::fmt;

/// Which frame an estimate request arrived as — and so which frame
/// answers it. Everything between the two (admission, queue, execution,
/// reply aggregation) treats a `Single` as a batch of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `estimate`: one `query`; the reply is that slot's result, unwrapped.
    Single,
    /// `estimate_batch`: a `queries` array; the reply wraps one result per
    /// slot in `results`.
    Batch,
}

/// A decoded `estimate` / `estimate_batch` request.
#[derive(Debug)]
pub struct EstimateRequest {
    /// Client correlation id, echoed in the response.
    pub id: Json,
    /// The decoded query graphs, in slot order (exactly one for
    /// [`Shape::Single`]).
    pub queries: Vec<Graph>,
    /// The frame shape of the request and of its reply.
    pub shape: Shape,
    /// Per-request wall-clock deadline, in milliseconds from admission,
    /// applied to every slot.
    pub deadline_ms: Option<u64>,
    /// Per-request deterministic filtering step cap, applied to every slot.
    pub max_filter_steps: Option<u64>,
    /// Client idempotency seqno (echoed; retries deduplicate on it).
    pub idem: Option<u64>,
    /// Client session token scoping `idem` (stable across reconnects;
    /// absent = scoped to this connection).
    pub session: Option<u64>,
}

/// A decoded client request.
#[derive(Debug)]
pub enum Request {
    /// Estimate one query (or a batch of them); the response carries one
    /// result per slot.
    Estimate(EstimateRequest),
    /// Atomically swap in a new model from a checksummed model file.
    ReloadModel {
        /// Client correlation id, echoed in the response.
        id: Json,
        /// Path to the model file on the server's filesystem.
        path: String,
    },
    /// Report server counters, queue depth and the active model checksum.
    Stats {
        /// Client correlation id, echoed in the response.
        id: Json,
    },
    /// Begin a graceful drain: finish queued work, then exit.
    Shutdown {
        /// Client correlation id, echoed in the response.
        id: Json,
    },
}

/// A request that could not be decoded: the error frame to send back.
#[derive(Debug)]
pub struct RequestError {
    /// Best-effort extracted correlation id (`Json::Null` when unknown).
    pub id: Json,
    /// Error kind for the frame (`parse`, `invalid_query`, …).
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl std::error::Error for RequestError {}

/// Maps a pipeline error onto the wire `kind` vocabulary.
pub fn error_kind(e: &NeurScError) -> &'static str {
    match e {
        NeurScError::Graph(_) => "graph",
        NeurScError::Persist(_) => "persist",
        NeurScError::Io { .. } => "io",
        NeurScError::Corrupt { .. } => "corrupt",
        NeurScError::InvalidQuery { .. } => "invalid_query",
        NeurScError::Budget { .. } => "budget",
        NeurScError::Divergence { .. } => "divergence",
        NeurScError::Panicked { .. } => "panicked",
        NeurScError::NoTrainingData => "no_training_data",
    }
}

/// Decodes one request line.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let v = json::parse(line).map_err(|e| RequestError {
        id: Json::Null,
        kind: "parse",
        detail: e.to_string(),
    })?;
    let id = v.get("id").cloned().unwrap_or(Json::Null);
    let fail = |kind: &'static str, detail: String| RequestError {
        id: id.clone(),
        kind,
        detail,
    };
    let verb = v
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("parse", "missing string field \"verb\"".into()))?;
    match verb {
        "estimate" | "estimate_batch" => {
            let graph =
                |qv, at: &str| graph_from_json(qv).map_err(|e| fail(e.0, format!("{at}{}", e.1)));
            let (shape, queries) = if verb == "estimate" {
                let qv = v
                    .get("query")
                    .ok_or_else(|| fail("parse", "estimate needs a \"query\" object".into()))?;
                (Shape::Single, vec![graph(qv, "")?])
            } else {
                let qs = v.get("queries").and_then(Json::as_arr).ok_or_else(|| {
                    fail("parse", "estimate_batch needs a \"queries\" array".into())
                })?;
                let queries: Result<Vec<Graph>, RequestError> = qs
                    .iter()
                    .enumerate()
                    .map(|(i, qv)| graph(qv, &format!("queries[{i}]: ")))
                    .collect();
                (Shape::Batch, queries?)
            };
            let opt = |key| opt_u64(&v, key).map_err(|e| fail(e.0, e.1));
            Ok(Request::Estimate(EstimateRequest {
                queries,
                shape,
                deadline_ms: opt("deadline_ms")?,
                max_filter_steps: opt("max_filter_steps")?,
                idem: opt("idem")?,
                session: opt("session")?,
                id,
            }))
        }
        "reload_model" => {
            let path = v
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("parse", "reload_model needs a string \"path\"".into()))?;
            Ok(Request::ReloadModel {
                id,
                path: path.to_string(),
            })
        }
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(fail("parse", format!("unknown verb {other:?}"))),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, (&'static str, String)> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or(("parse", format!("\"{key}\" must be a non-negative integer"))),
    }
}

/// Decodes the wire graph shape `{"n":N,"labels":[…],"edges":[[u,v],…]}`.
///
/// Structural validation (label count matches `n`, endpoints in range, no
/// self-loops) happens before any `O(n)` allocation beyond what the frame
/// size already bounds, so a hostile frame cannot cause amplification.
fn graph_from_json(v: &Json) -> Result<Graph, (&'static str, String)> {
    let n = v
        .get("n")
        .and_then(Json::as_u64)
        .ok_or(("parse", "graph needs an integer \"n\"".to_string()))?;
    if n > u32::MAX as u64 {
        return Err(("invalid_query", format!("n = {n} exceeds u32 range")));
    }
    let labels_v = v
        .get("labels")
        .and_then(Json::as_arr)
        .ok_or(("parse", "graph needs a \"labels\" array".to_string()))?;
    if labels_v.len() as u64 != n {
        return Err((
            "invalid_query",
            format!("labels has {} entries but n = {n}", labels_v.len()),
        ));
    }
    let mut labels = Vec::with_capacity(labels_v.len());
    for l in labels_v {
        let l = l
            .as_u64()
            .filter(|&l| l <= u32::MAX as u64)
            .ok_or(("parse", "labels entries must be u32 integers".to_string()))?;
        labels.push(l as u32);
    }
    let edges_v = v
        .get("edges")
        .and_then(Json::as_arr)
        .ok_or(("parse", "graph needs an \"edges\" array".to_string()))?;
    let mut edges = Vec::with_capacity(edges_v.len());
    for (i, e) in edges_v.iter().enumerate() {
        let pair = e
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or(("parse", format!("edges[{i}] must be a [u,v] pair")))?;
        let u = pair
            .first()
            .and_then(Json::as_u64)
            .filter(|&x| x <= u32::MAX as u64)
            .ok_or(("parse", format!("edges[{i}] endpoints must be u32")))?;
        let w = pair
            .get(1)
            .and_then(Json::as_u64)
            .filter(|&x| x <= u32::MAX as u64)
            .ok_or(("parse", format!("edges[{i}] endpoints must be u32")))?;
        edges.push((u as u32, w as u32));
    }
    Graph::from_edges(n as usize, &labels, &edges).map_err(|e| ("invalid_query", e.to_string()))
}

/// Encodes a graph in the wire shape (the inverse of `graph_from_json`).
pub fn graph_to_json(g: &Graph) -> Json {
    let labels = g.labels().iter().map(|&l| Json::Num(l as f64)).collect();
    let edges = g
        .edges()
        .map(|e| Json::Arr(vec![Json::Num(e.u as f64), Json::Num(e.v as f64)]))
        .collect();
    Json::Obj(vec![
        ("n".into(), Json::Num(g.n_vertices() as f64)),
        ("labels".into(), Json::Arr(labels)),
        ("edges".into(), Json::Arr(edges)),
    ])
}

/// One estimation result as a JSON object: a slot of a batch reply, and —
/// unwrapped by [`render_single`] — the body of a single reply.
pub fn result_to_json(r: &Result<EstimateDetail, NeurScError>) -> Json {
    match r {
        Ok(d) => {
            let mut obj = vec![
                ("ok".into(), Json::Bool(true)),
                ("estimate".into(), Json::Num(d.count)),
                (
                    "n_substructures".into(),
                    Json::Num(d.n_substructures as f64),
                ),
                ("trivially_zero".into(), Json::Bool(d.trivially_zero)),
                ("degraded".into(), Json::Bool(d.degraded)),
            ];
            // Backends that report an interval (the sampling estimator)
            // get three extra fields; WEst results omit them.
            if let Some(ci) = d.ci {
                obj.push(("ci_low".into(), Json::Num(ci.low)));
                obj.push(("ci_high".into(), Json::Num(ci.high)));
                obj.push(("ci_confidence".into(), Json::Num(ci.confidence)));
            }
            Json::Obj(obj)
        }
        Err(e) => error_item(error_kind(e), &e.to_string()),
    }
}

/// A failed slot: `{"ok":false,"kind":…,"detail":…}`.
pub(crate) fn error_item(kind: &str, detail: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("kind".into(), Json::Str(kind.into())),
        ("detail".into(), Json::Str(detail.into())),
    ])
}

/// Splices the `id` echo and, when the request sent one, the `idem` echo
/// in right after `ok`: the field order `ok, id, idem, …` is part of the
/// wire contract.
fn echo(fields: &mut Vec<(String, Json)>, id: &Json, idem: Option<u64>) {
    let at = fields.len().min(1);
    fields.insert(at, ("id".into(), id.clone()));
    if let Some(n) = idem {
        fields.insert(at + 1, ("idem".into(), Json::Num(n as f64)));
    }
}

/// Renders the response frame of a single `estimate` request: the slot's
/// result object ([`result_to_json`]) with `id`/`idem` echoed, so a
/// retrying client can match the reply to its retry.
pub fn render_single(id: &Json, idem: Option<u64>, item: Json) -> String {
    let mut fields = match item {
        Json::Obj(fields) => fields,
        _ => Vec::new(),
    };
    echo(&mut fields, id, idem);
    Json::Obj(fields).render()
}

/// [`render_single`] of an f32 result without an idempotency seqno — the
/// frame an offline reference predicts for a served `estimate`.
pub fn render_result(id: &Json, r: &Result<EstimateDetail, NeurScError>) -> String {
    render_single(id, None, result_to_json(r))
}

/// Renders the response frame for an `estimate_batch` request.
pub fn render_batch(id: &Json, idem: Option<u64>, items: Vec<Json>) -> String {
    let mut fields = vec![
        ("ok".into(), Json::Bool(true)),
        ("results".into(), Json::Arr(items)),
    ];
    echo(&mut fields, id, idem);
    Json::Obj(fields).render()
}

/// Renders a typed error frame: byte-equal to [`render_single`] of the
/// same failure as a slot.
pub fn render_error(id: &Json, idem: Option<u64>, kind: &str, detail: &str) -> String {
    render_single(id, idem, error_item(kind, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_request_roundtrips_through_the_graph_codec() {
        let g = Graph::from_edges(3, &[0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        let line = format!(
            r#"{{"verb":"estimate","id":5,"query":{},"max_filter_steps":100,"idem":7,"session":9}}"#,
            graph_to_json(&g).render()
        );
        match parse_request(&line) {
            Ok(Request::Estimate(r)) => {
                assert_eq!(r.id.as_u64(), Some(5));
                assert_eq!(r.shape, Shape::Single);
                assert_eq!(r.queries.len(), 1);
                assert_eq!(
                    r.queries[0].content_fingerprint(),
                    g.content_fingerprint(),
                    "decoded graph differs"
                );
                assert_eq!(r.deadline_ms, None);
                assert_eq!(r.max_filter_steps, Some(100));
                assert_eq!(r.idem, Some(7));
                assert_eq!(r.session, Some(9));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn malformed_graphs_are_typed_errors() {
        for (body, kind) in [
            (r#"{"n":2,"labels":[0],"edges":[]}"#, "invalid_query"),
            (r#"{"n":2,"labels":[0,1],"edges":[[0,0]]}"#, "invalid_query"),
            (r#"{"n":2,"labels":[0,1],"edges":[[0,5]]}"#, "invalid_query"),
            (r#"{"n":2,"labels":[0,1],"edges":[[0]]}"#, "parse"),
            (r#"{"labels":[],"edges":[]}"#, "parse"),
            (r#"{"n":-1,"labels":[],"edges":[]}"#, "parse"),
        ] {
            let line = format!(r#"{{"verb":"estimate","id":1,"query":{body}}}"#);
            let err = parse_request(&line).expect_err(body);
            assert_eq!(err.kind, kind, "{body}: {}", err.detail);
            assert_eq!(err.id.as_u64(), Some(1), "id must survive for the frame");
        }
    }

    #[test]
    fn unknown_verbs_and_missing_ids_still_frame_cleanly() {
        let err = parse_request(r#"{"verb":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.kind, "parse");
        assert_eq!(err.id, Json::Null);
        let frame = render_error(&err.id, None, err.kind, &err.detail);
        assert!(frame.starts_with(r#"{"ok":false,"id":null,"kind":"parse""#));
        // `snapshot` is not a verb: the same frame, with the id kept.
        let err = parse_request(r#"{"verb":"snapshot","id":1}"#).unwrap_err();
        assert_eq!(
            render_error(&err.id, None, err.kind, &err.detail),
            r#"{"ok":false,"id":1,"kind":"parse","detail":"unknown verb \"snapshot\""}"#
        );
    }

    /// The exact bytes of every reply kind, with and without `idem`: the
    /// field order `ok, id, idem, …` is part of the contract
    /// (`RetryClient` parses it, caches replay these bytes).
    #[test]
    fn reply_frames_are_pinned_byte_for_byte() {
        let id = Json::Num(9.0);
        let detail = EstimateDetail {
            count: 2.5,
            n_substructures: 3,
            trivially_zero: false,
            degraded: true,
            ci: None,
            report: Default::default(),
        };
        let with_ci = EstimateDetail {
            ci: Some(neursc_core::ConfidenceInterval {
                low: 1.0,
                high: 4.5,
                confidence: 0.95,
            }),
            ..detail.clone()
        };
        let budget = Err(NeurScError::Budget {
            detail: "steps".into(),
        });
        let (ok, ci, err) = (Ok(detail), Ok(with_ci), budget);

        assert_eq!(
            render_result(&id, &ok),
            r#"{"ok":true,"id":9,"estimate":2.5,"n_substructures":3,"trivially_zero":false,"degraded":true}"#
        );
        assert_eq!(
            render_single(&id, Some(4), result_to_json(&ci)),
            r#"{"ok":true,"id":9,"idem":4,"estimate":2.5,"n_substructures":3,"trivially_zero":false,"degraded":true,"ci_low":1,"ci_high":4.5,"ci_confidence":0.95}"#
        );
        let err_frame = format!(
            r#"{{"ok":false,"id":9,"kind":"budget","detail":"{}"}}"#,
            NeurScError::Budget {
                detail: "steps".into()
            }
        );
        assert_eq!(render_result(&id, &err), err_frame);
        assert_eq!(
            render_error(&Json::Null, None, "parse", "bad \"frame\""),
            r#"{"ok":false,"id":null,"kind":"parse","detail":"bad \"frame\""}"#
        );
        assert_eq!(
            render_error(&id, Some(4), "overloaded", "queue full"),
            r#"{"ok":false,"id":9,"idem":4,"kind":"overloaded","detail":"queue full"}"#
        );
        assert_eq!(
            render_batch(&id, None, Vec::new()),
            r#"{"ok":true,"id":9,"results":[]}"#
        );
        let items = vec![result_to_json(&ok), error_item("draining", "bye")];
        assert_eq!(
            render_batch(&Json::Str("b".into()), Some(4), items),
            r#"{"ok":true,"id":"b","idem":4,"results":[{"ok":true,"estimate":2.5,"n_substructures":3,"trivially_zero":false,"degraded":true},{"ok":false,"kind":"draining","detail":"bye"}]}"#
        );
    }
}
