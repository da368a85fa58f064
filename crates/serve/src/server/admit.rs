//! Admission stage: drain/quarantine refusals, idempotent replay, the
//! per-request budget, the size cap, the queue bound and the admission
//! journal. Everything that survives becomes one [`Pending`] per slot on
//! the batcher's queue, all pointing at the request's one [`Admitted`].

use super::batcher::Pending;
use super::reply::{finish_slot, reject, send_reply, write_frame, Admitted};
use super::{lock, Replier, Shared};
use crate::journal::digest_queries;
use crate::json::Json;
use crate::proto::{self, EstimateRequest};
use neursc_core::NeurScError;
use neursc_graph::hash::Fnv64;
use neursc_graph::Graph;
use neursc_match::FilterBudget;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retry-deduplication cache key:
/// `(session-scoped?, scope, idem seqno, replay digest)`.
///
/// `scope` is the client-supplied session token when the request carried
/// one (`true`) — stable across reconnects, so a post-reconnect retry
/// still replays — and the server-assigned connection id otherwise
/// (`false`). The boolean tag keeps the two namespaces disjoint, so a
/// client token can never collide with a connection id. The replay
/// digest folds the per-request budgets into the content digest (see
/// [`replay_digest`]): only a truly identical request replays.
pub(super) type IdemKey = (bool, u64, u64, u64);

/// The replay-identity digest: the request's content digest mixed with
/// its `deadline_ms`/`max_filter_steps`, FNV-1a style. Unlike the
/// journal/quarantine digest (content only — a poison query is poison
/// under any budget), the idempotency cache must distinguish the same
/// query under different budgets: a tighter deadline can legitimately
/// produce a different (budget-exceeded) reply.
fn replay_digest(digest: u64, deadline_ms: Option<u64>, max_filter_steps: Option<u64>) -> u64 {
    let mut h = Fnv64::resume(digest);
    // +1 keeps `Some(0)` distinct from `None`.
    for word in [
        deadline_ms.map_or(0, |v| v.wrapping_add(1)),
        max_filter_steps.map_or(0, |v| v.wrapping_add(1)),
    ] {
        h.update(&word.to_le_bytes());
    }
    h.finish()
}

/// Retry deduplication state, keyed on [`IdemKey`] so two clients
/// reusing the same seqno — or one client resubmitting the same query
/// under a different budget — never collide.
#[derive(Debug, Default)]
pub(super) struct IdemCache {
    /// Keys admitted but not yet answered: a duplicate gets a transient
    /// `overloaded` frame (the client backs off; by its next attempt the
    /// original's reply is in `done`).
    in_flight: HashSet<IdemKey>,
    /// Completed keys with their exact reply frame, FIFO-bounded
    /// (best-effort; see [`super::IDEM_CACHE_CAP`]).
    done: VecDeque<(IdemKey, String)>,
}

/// What admission found for a request's idempotency key.
pub(super) enum IdemState {
    /// Never seen (or no `idem` supplied): process normally.
    New,
    /// The original is still being processed.
    InFlight,
    /// Already answered: the cached frame to replay.
    Done(String),
}

impl Shared {
    /// Admission-side idempotency check; registers `New` keys in flight.
    pub(super) fn idem_admit(&self, key: Option<IdemKey>) -> IdemState {
        let Some(key) = key else {
            return IdemState::New;
        };
        let mut cache = lock(&self.idem);
        if let Some((_, frame)) = cache.done.iter().find(|(k, _)| *k == key) {
            return IdemState::Done(frame.clone());
        }
        if !cache.in_flight.insert(key) {
            return IdemState::InFlight;
        }
        IdemState::New
    }

    /// Completion-side idempotency bookkeeping. `frame` is the reply that
    /// is about to be written: `Some` caches it for replay, `None` (a
    /// transient rejection like `overloaded`) just releases the key so
    /// the retry is processed fresh.
    pub(super) fn idem_finish(&self, key: Option<IdemKey>, frame: Option<&str>) {
        let Some(key) = key else {
            return;
        };
        let mut cache = lock(&self.idem);
        cache.in_flight.remove(&key);
        if let Some(frame) = frame {
            cache.done.push_back((key, frame.to_string()));
            while cache.done.len() > super::IDEM_CACHE_CAP {
                cache.done.pop_front();
                self.recorder.metrics().counter_add("idem.evicted", 1);
            }
        }
    }
}

/// Admission of one estimate request, whatever its shape. Request-level
/// refusals (`draining`, `crash_suspect`, a duplicate still in flight)
/// answer with one top-level error frame and an idempotent replay with
/// the cached frame; otherwise the request gets its [`Admitted`]
/// aggregator and is admitted per slot — an over-cap slot gets its typed
/// error in place while its siblings are enqueued.
pub(super) fn admit(shared: &Shared, conn: &Replier, conn_id: u64, req: EstimateRequest) {
    let metrics = shared.recorder.metrics();
    let total = req.queries.len();
    metrics.counter_add("serve.request", total as u64);
    let refuse = |kind: &str, detail: &str| {
        write_frame(
            shared,
            conn,
            &proto::render_error(&req.id, req.idem, kind, detail),
        );
    };
    if shared.draining() {
        metrics.counter_add("serve.rejected", total as u64);
        return refuse("draining", "server is shutting down");
    }

    // Content digest of the whole request: the journal / quarantine /
    // idempotency identity. Stable across restarts and reconnects.
    let fps: Vec<u64> = req.queries.iter().map(Graph::content_fingerprint).collect();
    let digest = digest_queries(&fps);
    if shared.cfg.quarantine.contains(&digest) {
        metrics.counter_add("journal.quarantined", 1);
        metrics.counter_add("serve.rejected", total as u64);
        return refuse(
            "crash_suspect",
            &format!(
                "request digest {digest:016x} was in flight in ≥2 consecutive \
                 worker crashes and is quarantined"
            ),
        );
    }

    // Idempotency key: scoped by the client's session token (stable
    // across reconnects) or this connection's id, over the replay digest
    // (content + budgets) — see [`IdemKey`].
    let scope = req.session.map_or((false, conn_id), |s| (true, s));
    let idem_key = req.idem.map(|n| {
        let replay = replay_digest(digest, req.deadline_ms, req.max_filter_steps);
        (scope.0, scope.1, n, replay)
    });
    match shared.idem_admit(idem_key) {
        IdemState::New => {}
        IdemState::Done(frame) => {
            // A retry of an already-answered request: replay the exact
            // frame, process nothing.
            metrics.counter_add("serve.idem.replayed", 1);
            return write_frame(shared, conn, &frame);
        }
        IdemState::InFlight => {
            // The original is still running; tell the client to back off
            // (its next retry hits the replay path above).
            metrics.counter_add("serve.idem.in_flight", 1);
            return refuse(
                "overloaded",
                "idempotent request is still being processed; retry",
            );
        }
    }

    let admitted = Arc::new(Admitted {
        id: req.id,
        shape: req.shape,
        idem: req.idem,
        idem_key,
        conn: Arc::clone(conn),
        digest,
        budget: request_budget(req.deadline_ms, req.max_filter_steps),
        deadline_ms: req.deadline_ms,
        slots: Mutex::new((vec![Json::Null; total], total)),
        transient: AtomicBool::new(false),
    });
    // Over-cap slots are answered in place — a deterministic admission
    // verdict, cacheable for replay like the batcher's results.
    let mut to_queue = Vec::with_capacity(total);
    for (slot, query) in req.queries.into_iter().enumerate() {
        match shared.cfg.max_query_vertices {
            Some(cap) if query.n_vertices() > cap => {
                metrics.counter_add("serve.rejected", 1);
                let e = NeurScError::Budget {
                    detail: format!(
                        "admission: query has {} vertices, server cap is {:?}",
                        query.n_vertices(),
                        shared.cfg.max_query_vertices
                    ),
                };
                finish_slot(shared, &admitted, slot, proto::result_to_json(&Err(e)));
            }
            _ => to_queue.push((slot, query)),
        }
    }
    if total == 0 {
        send_reply(shared, &admitted, Vec::new()); // an empty batch completes at once
    } else if !to_queue.is_empty() {
        enqueue(shared, &admitted, to_queue);
    }
}

/// Anchors the per-request deadline at admission time.
fn request_budget(deadline_ms: Option<u64>, max_filter_steps: Option<u64>) -> Option<FilterBudget> {
    match (deadline_ms, max_filter_steps) {
        (None, None) => None,
        (deadline, steps) => {
            let mut b = steps.map_or(FilterBudget::UNBOUNDED, FilterBudget::steps);
            if let Some(ms) = deadline {
                b = b.with_deadline(Instant::now() + Duration::from_millis(ms));
            }
            Some(b)
        }
    }
}

/// Pushes a request's admitted slots, or answers every one of them with
/// an `overloaded` item when the queue bound would be exceeded. When a
/// journal is configured, the admission lines hit disk (one fsync for the
/// whole request) *before* the work becomes runnable, so any crash while
/// it runs is attributable to its digest.
fn enqueue(shared: &Shared, req: &Arc<Admitted>, slots: Vec<(usize, Graph)>) {
    let count = slots.len() as u64;
    let reject_all = |slots: Vec<(usize, Graph)>, kind: &str, detail: &str| {
        shared
            .recorder
            .metrics()
            .counter_add("serve.rejected", count);
        for (slot, _) in slots {
            reject(shared, req, slot, kind, detail);
        }
    };
    // Reserve seqnos under the bound check; the fsync below must not run
    // inside the queue lock.
    let first_seq = {
        let mut q = lock(&shared.queue);
        if q.items.len() + slots.len() > shared.cfg.max_pending {
            None
        } else {
            let first = q.next_seq;
            q.next_seq += count;
            Some(first)
        }
    };
    let Some(first_seq) = first_seq else {
        return reject_all(slots, "overloaded", "request queue is full");
    };
    let seqs = first_seq..first_seq + count;
    if let Some(j) = &shared.journal {
        if j.admit(seqs.clone(), req.digest).is_err() {
            shared
                .recorder
                .metrics()
                .counter_add("serve.journal.write_error", 1);
        }
    }
    {
        let mut q = lock(&shared.queue);
        // Re-check under the lock: drain may have begun while we were
        // journaling, and the batcher may already be past its final pass.
        if !shared.draining() {
            for (seq, (slot, query)) in seqs.zip(slots) {
                q.items.push_back(Pending {
                    seq,
                    slot,
                    query,
                    req: Arc::clone(req),
                });
            }
            shared.notify.notify_all();
            return;
        }
    }
    if let Some(j) = &shared.journal {
        for seq in seqs {
            let _ = j.complete(seq);
        }
    }
    reject_all(slots, "draining", "server is shutting down");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Shape;
    use crate::server::{serve, ServeConfig};
    use crate::Client;
    use neursc_core::{NeurSc, NeurScConfig, Recorder};
    use neursc_graph::generate::erdos_renyi;
    use std::sync::atomic::Ordering;

    /// What cannot be staged from outside without racing the batcher, on
    /// one request `(session 77, idem 8, q)` sent in both shapes: a
    /// transient slot (`overloaded` via `reject`) answers in the request's
    /// shape and releases the idempotency key uncached; a duplicate whose
    /// original is in flight, and admission during a drain, are one
    /// top-level error frame whatever the shape. (`crash_suspect` is
    /// covered on the wire by `tests/proto_fuzz.rs`.)
    #[test]
    fn transient_slots_and_request_level_refusals_for_both_shapes() {
        let model = NeurSc::new(NeurScConfig::small(), 1);
        let cfg = ServeConfig {
            max_pending: 0, // every enqueue is refused `overloaded`
            ..ServeConfig::default()
        };
        let g = erdos_renyi(20, 30, 2, 1);
        let server = serve(model, g, cfg, Arc::new(Recorder::new())).unwrap();
        let shared = &server.shared;
        let mut client = Client::connect_tcp(server.local_addr()).unwrap();
        // A reply proves the acceptor registered the connection's writer half.
        client.request(&crate::client::stats_request(0)).unwrap();
        let conn = Arc::clone(&lock(&shared.conns).conns[0]);
        let q = erdos_renyi(3, 3, 2, 2);
        let mut reply_to = |shape| {
            let req = EstimateRequest {
                id: Json::Num(5.0),
                queries: vec![q.clone()],
                shape,
                deadline_ms: None,
                max_filter_steps: None,
                idem: Some(8),
                session: Some(77),
            };
            admit(shared, &conn, 1, req);
            client.recv_line().unwrap()
        };

        // Transient: were the key cached or left in flight by the first
        // shape, the second would get a replay or an in-flight refusal.
        let slot = r#"{"ok":false,"kind":"overloaded","detail":"request queue is full"}"#;
        assert_eq!(
            reply_to(Shape::Single),
            r#"{"ok":false,"id":5,"idem":8,"kind":"overloaded","detail":"request queue is full"}"#
        );
        assert_eq!(
            reply_to(Shape::Batch),
            format!(r#"{{"ok":true,"id":5,"idem":8,"results":[{slot}]}}"#)
        );
        let digest = digest_queries(&[q.content_fingerprint()]);
        let key = (true, 77, 8, replay_digest(digest, None, None));
        assert!(matches!(shared.idem_admit(Some(key)), IdemState::New));

        // That lookup put the key in flight.
        let refusal = |kind, detail| proto::render_error(&Json::Num(5.0), Some(8), kind, detail);
        let in_flight = refusal(
            "overloaded",
            "idempotent request is still being processed; retry",
        );
        assert_eq!(reply_to(Shape::Single), in_flight);
        assert_eq!(reply_to(Shape::Batch), in_flight);

        // Raise the drain flag only: without `begin_drain`'s wakeup the
        // batcher sleeps on, so the connection is still open to answer on.
        shared.draining.store(true, Ordering::SeqCst);
        let draining = refusal("draining", "server is shutting down");
        assert_eq!(reply_to(Shape::Single), draining);
        assert_eq!(reply_to(Shape::Batch), draining);
        server.shutdown();
        server.join().unwrap();
    }
}
