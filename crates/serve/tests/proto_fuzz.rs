//! Property-based fuzz of the serve protocol parser and a live-daemon
//! adversarial session: malformed JSON, oversized frames, truncated
//! lines and interleaved pipelined requests must all produce typed error
//! frames — never a panic, never a hang, never a dropped valid request.

use neursc_core::{NeurSc, NeurScConfig, Recorder};
use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use neursc_serve::client::{self, Client, Queries};
use neursc_serve::journal::digest_queries;
use neursc_serve::json::Json;
use neursc_serve::{json, parse_request, serve, ServeConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: the parser returns Ok or a typed error, never
    /// panics (the harness would abort the test on any panic).
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&data);
        let _ = json::parse(&text);
        let _ = parse_request(&text);
    }

    /// Truncating a valid frame at any byte yields a typed error or (for
    /// full length) a valid request — never a panic.
    #[test]
    fn truncated_valid_frames_fail_cleanly(cut in 0usize..200, id in any::<u32>()) {
        let g = erdos_renyi(5, 6, 3, u64::from(id));
        let frame = client::estimate_request(u64::from(id), &g);
        let cut = cut.min(frame.len());
        if let Some(prefix) = frame.get(..cut) {
            let r = parse_request(prefix);
            if cut < frame.len() {
                prop_assert!(r.is_err(), "accepted truncated frame {prefix:?}");
            } else {
                prop_assert!(r.is_ok());
            }
        }
    }

    /// Structured JSON that is not a valid request is always a typed
    /// RequestError whose id survives for the error frame.
    #[test]
    fn structured_garbage_is_a_typed_error(
        verb in proptest::collection::vec(0u8..27, 0..12).prop_map(|cs| {
            cs.into_iter()
                .map(|c| if c == 26 { '_' } else { (b'a' + c) as char })
                .collect::<String>()
        }),
        id in any::<u32>(),
    ) {
        let line = format!(r#"{{"verb":"{verb}","id":{id}}}"#);
        match parse_request(&line) {
            Ok(r) => {
                // Only the argument-free verbs can parse without a payload.
                let ok = matches!(
                    r,
                    neursc_serve::Request::Stats { .. } | neursc_serve::Request::Shutdown { .. }
                );
                prop_assert!(ok, "verb {verb:?} parsed unexpectedly");
            }
            Err(e) => {
                prop_assert_eq!(e.id.as_u64(), Some(u64::from(id)));
                prop_assert!(!e.kind.is_empty());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A singleton is a batch of one, on the wire: for any query, budgets
    /// and `idem`/`session`, the `estimate` reply minus its `id`/`idem`
    /// echoes is byte-equal to `results[0]` of the
    /// `estimate_batch` reply for `[query]` — whether the slot is `Ok`, a
    /// typed error (`max_filter_steps: 1`) or over the admission cap — and
    /// a request-level refusal (`crash_suspect`) is the same top-level
    /// error frame for both shapes.
    #[test]
    fn singleton_reply_is_the_batch_of_one_reply_unwrapped(
        seed in any::<u32>(),
        outcome in 0u8..3,
        with_deadline in any::<bool>(),
        idem in 0u64..3,
        session in 0u64..3,
    ) {
        let g = erdos_renyi(60, 150, 3, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(seed));
        // outcome 0: Ok; 1: starved filter budget; 2: over the 4-vertex cap.
        let n = if outcome == 2 { 5 } else { 3 };
        let q = sample_query(&g, &QuerySampler::induced(n), &mut rng).unwrap();
        let poison = Graph::from_edges(2, &[0, 0], &[(0, 1)]).unwrap();
        let cfg = ServeConfig {
            max_query_vertices: Some(4),
            quarantine: vec![digest_queries(&[poison.content_fingerprint()])],
            ..ServeConfig::default()
        };
        let model = NeurSc::new(NeurScConfig::small(), 42);
        let server = serve(model, g, cfg, Arc::new(Recorder::new())).unwrap();
        let mut c = Client::connect_tcp(server.local_addr()).unwrap();

        let deadline = with_deadline.then_some(60_000);
        let steps = (outcome == 1).then_some(1);
        // 0 = not sent. The two shapes are two requests, so two seqnos.
        let idem_single = (idem > 0).then_some(idem);
        let idem_batch = (idem > 0).then_some(idem + 10);
        let session = (session > 0).then_some(session);
        let mut ask = |id, queries, idem| {
            let frame = client::estimate_frame(id, queries, deadline, steps, idem, session);
            c.request(&frame).unwrap()
        };
        let echo = |id: u64, idem: Option<u64>| match idem {
            Some(n) => format!("\"id\":{id},\"idem\":{n},"),
            None => format!("\"id\":{id},"),
        };

        let single = ask(1, Queries::Single(&q), idem_single);
        let batch = ask(1, Queries::Batch(std::slice::from_ref(&q)), idem_batch);
        let slot = single.replacen(&echo(1, idem_single), "", 1);
        prop_assert_eq!(
            &batch,
            &format!("{{\"ok\":true,{}\"results\":[{slot}]}}", echo(1, idem_batch)),
            "single reply was {}", single
        );
        match outcome {
            0 => prop_assert!(slot.starts_with("{\"ok\":true,\"estimate\":"), "{}", slot),
            _ => {
                prop_assert!(slot.starts_with("{\"ok\":false,\"kind\":\"budget\","), "{}", slot);
                prop_assert_eq!(slot.contains("admission:"), outcome == 2, "{}", slot);
            }
        }

        // Refused before anything is cached or queued: same id and seqno
        // for both shapes, so the two frames are equal as they stand.
        let refused = ask(2, Queries::Single(&poison), idem_single);
        prop_assert_eq!(
            &refused,
            &ask(2, Queries::Batch(std::slice::from_ref(&poison)), idem_single)
        );
        let head = format!("{{\"ok\":false,{}\"kind\":\"crash_suspect\",", echo(2, idem_single));
        prop_assert!(refused.starts_with(&head), "{}", refused);

        c.send_line(&client::shutdown_request(100)).unwrap();
        let _ = c.recv_line().unwrap();
        server.join().unwrap();
    }
}

/// One live daemon, one connection, an adversarial interleaving: valid
/// estimates pipelined between malformed JSON, truncated frames, an
/// oversized frame, and unknown verbs. Every valid request gets its
/// result, every hostile line gets a typed error frame, and the daemon
/// drains cleanly afterwards.
#[test]
fn interleaved_hostile_and_valid_frames_on_a_live_daemon() {
    let g = erdos_renyi(60, 150, 3, 5);
    let q = erdos_renyi(3, 3, 3, 6);
    let model = NeurSc::new(NeurScConfig::small(), 42);
    let cfg = ServeConfig {
        max_frame_bytes: 4096,
        ..ServeConfig::default()
    };
    let server = serve(model, g, cfg, Arc::new(Recorder::new())).unwrap();
    let mut c = Client::connect_tcp(server.local_addr()).unwrap();

    // One valid request (ids 0..) before each hostile line.
    let hostile = [
        "{not json at all",
        r#"{"verb":"estimate"}"#,
        r#"{"verb":"no_such_verb","id":77}"#,
        r#"{"verb":"snapshot","id":80}"#,
        r#"{"verb":"estimate","id":78,"query":{"n":2,"labels":[0,1],"edges":[[0,9]]}}"#,
        "[1,2,3]",
        r#"{"verb":"estimate","id":79,"query":{"n":1,"labels":[0],"edges":[]},"max_filter_steps":-3}"#,
    ];
    let mut expected_errors = hostile.len();
    for (i, bad) in hostile.iter().enumerate() {
        c.send_line(&client::estimate_request(i as u64, &q))
            .unwrap();
        c.send_line(bad).unwrap();
    }
    // An oversized frame (no newline until past the cap) plus one more
    // valid request to prove the connection resynchronized.
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(8192));
    c.send_line(&huge).unwrap();
    expected_errors += 1;
    let last_id = hostile.len() as u64;
    c.send_line(&client::estimate_request(last_id, &q)).unwrap();

    let mut ok_ids = Vec::new();
    let mut errors = 0;
    for _ in 0..(hostile.len() + 1 + expected_errors) {
        let line = c.recv_line().unwrap();
        let v = json::parse(&line).unwrap();
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            ok_ids.push(v.get("id").and_then(Json::as_u64).unwrap());
        } else {
            errors += 1;
            assert!(
                v.get("kind").and_then(Json::as_str).is_some(),
                "error frame without kind: {line}"
            );
        }
    }
    ok_ids.sort_unstable();
    assert_eq!(
        ok_ids,
        (0..=last_id).collect::<Vec<_>>(),
        "every valid request answered"
    );
    assert_eq!(errors, expected_errors, "every hostile line answered");

    c.send_line(&client::shutdown_request(100)).unwrap();
    let _ = c.recv_line().unwrap();
    server.join().unwrap();
}
