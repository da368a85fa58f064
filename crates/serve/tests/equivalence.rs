//! Serve-vs-offline equivalence acceptance suite.
//!
//! The contract: a served estimate is **bit-identical** to the offline
//! `estimate_batch` path, at any worker thread count and any micro-batch
//! split; poisoned requests produce typed error frames for their slot
//! only; a concurrent `reload_model` mid-run never corrupts results or
//! blocks the pipeline. The workload mirrors `tests/fault_injection.rs`:
//! 32 queries with 4 poisons (injected panic, starved budget, empty
//! query, over-cap query).

use neursc_core::persist::save_model;
use neursc_core::{EstimateDetail, Estimator, FaultPlan, GraphContext, NeurSc, NeurScConfig};
use neursc_core::{NeurScError, Recorder};
use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use neursc_sample::{SampleConfig, SampleEstimator};
use neursc_serve::client::{self, Client, Queries::Single};
use neursc_serve::json::Json;
use neursc_serve::router::{candidate_volume, route, BackendChoice, Routed, RouterConfig};
use neursc_serve::{proto, serve, Listen, ServeConfig};
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const PANIC_ITEM: usize = 3;
const STARVED_ITEM: usize = 11;
const EMPTY_ITEM: usize = 17;
const OVERSIZED_ITEM: usize = 26;

fn workload(seed: u64) -> (Graph, Vec<Graph>) {
    let g = erdos_renyi(150, 450, 4, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let queries = (0..32)
        .map(|_| sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap())
        .collect();
    (g, queries)
}

fn small_config(threads: usize) -> NeurScConfig {
    let mut cfg = NeurScConfig::small();
    cfg.threads = threads;
    cfg.budget.max_query_vertices = Some(16);
    cfg
}

/// The 32-query batch with its four poisoned slots.
fn poisoned_batch(clean: &[Graph]) -> Vec<Graph> {
    let mut batch = clean.to_vec();
    batch[EMPTY_ITEM] = Graph::from_edges(0, &[], &[]).unwrap();
    let labels = vec![0; 20];
    let edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
    batch[OVERSIZED_ITEM] = Graph::from_edges(20, &labels, &edges).unwrap();
    batch
}

fn serve_config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        chaos_panic: vec![PANIC_ITEM as u64],
        chaos_starve: vec![STARVED_ITEM as u64],
        ..ServeConfig::default()
    }
}

/// Pipelines every query on one connection (ids = indices) and collects
/// the responses by id.
fn run_pipelined(addr: &str, batch: &[Graph]) -> HashMap<u64, Json> {
    let mut c = Client::connect_tcp(addr).unwrap();
    for (i, q) in batch.iter().enumerate() {
        c.send_line(&client::estimate_request(i as u64, q)).unwrap();
    }
    let mut by_id = HashMap::new();
    for _ in 0..batch.len() {
        let line = c.recv_line().unwrap();
        let v = neursc_serve::json::parse(&line).unwrap();
        let id = v.get("id").and_then(Json::as_u64).unwrap();
        by_id.insert(id, v);
    }
    c.send_line(&client::shutdown_request(9999)).unwrap();
    let bye = c.recv_line().unwrap();
    assert!(bye.contains("\"draining\":true"), "{bye}");
    by_id
}

fn assert_matches_offline(
    offline: &[Result<neursc_core::EstimateDetail, neursc_core::NeurScError>],
    served: &HashMap<u64, Json>,
    label: &str,
) {
    assert_eq!(served.len(), offline.len(), "{label}: response count");
    for (i, off) in offline.iter().enumerate() {
        let v = &served[&(i as u64)];
        match off {
            Ok(d) => {
                assert_eq!(
                    v.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "{label}: item {i} should be ok, got {}",
                    v.render()
                );
                let est = v.get("estimate").and_then(Json::as_f64).unwrap();
                assert_eq!(
                    est.to_bits(),
                    d.count.to_bits(),
                    "{label}: item {i} not bit-identical ({est} vs {})",
                    d.count
                );
            }
            Err(e) => {
                assert_eq!(
                    v.get("ok").and_then(Json::as_bool),
                    Some(false),
                    "{label}: item {i} should be a typed error, got {}",
                    v.render()
                );
                assert_eq!(
                    v.get("kind").and_then(Json::as_str),
                    Some(proto::error_kind(e)),
                    "{label}: item {i} wrong error kind"
                );
            }
        }
    }
}

#[test]
fn served_estimates_are_bit_identical_to_offline_at_any_thread_count() {
    let (g, clean) = workload(7);
    let batch = poisoned_batch(&clean);

    // Offline baseline: one estimate_batch call with the equivalent plan.
    let offline_model = NeurSc::new(small_config(1), 42);
    let ctx = GraphContext::with_faults(
        FaultPlan::new()
            .panic_on(PANIC_ITEM)
            .starve_budget_on(STARVED_ITEM),
    );
    let offline = offline_model.estimate_batch(&batch, &g, &ctx);
    assert_eq!(offline.iter().filter(|d| d.is_ok()).count(), 28);

    for threads in [1, 2, 4] {
        let model = NeurSc::new(small_config(threads), 42);
        let server = serve(
            model,
            g.clone(),
            serve_config(threads),
            Arc::new(Recorder::new()),
        )
        .unwrap();
        let served = run_pipelined(server.local_addr(), &batch);
        server.join().unwrap();
        assert_matches_offline(&offline, &served, &format!("threads={threads}"));
    }
}

#[test]
fn tiny_micro_batches_still_match_offline() {
    // max_batch = 1 exercises the degenerate split: every request is its
    // own batch, chaos still lands on the right sequence numbers.
    let (g, clean) = workload(7);
    let batch = poisoned_batch(&clean);
    let offline_model = NeurSc::new(small_config(1), 42);
    let ctx = GraphContext::with_faults(
        FaultPlan::new()
            .panic_on(PANIC_ITEM)
            .starve_budget_on(STARVED_ITEM),
    );
    let offline = offline_model.estimate_batch(&batch, &g, &ctx);

    let model = NeurSc::new(small_config(2), 42);
    let cfg = ServeConfig {
        max_batch: 1,
        batch_wait: Duration::from_micros(1),
        ..serve_config(2)
    };
    let server = serve(model, g.clone(), cfg, Arc::new(Recorder::new())).unwrap();
    let served = run_pipelined(server.local_addr(), &batch);
    server.join().unwrap();
    assert_matches_offline(&offline, &served, "max_batch=1");
}

#[test]
fn concurrent_reload_mid_run_never_corrupts_or_blocks() {
    let (g, clean) = workload(7);
    let dir = std::env::temp_dir().join("neursc_serve_reload");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Same weights on disk (same config + seed), plus a corrupt copy.
    let good_path = dir.join("same.model");
    save_model(&NeurSc::new(small_config(1), 42), &good_path).unwrap();
    let corrupt_path = dir.join("corrupt.model");
    let text = std::fs::read_to_string(&good_path).unwrap();
    std::fs::write(&corrupt_path, &text[..text.len() - 21]).unwrap();

    let offline_model = NeurSc::new(small_config(1), 42);
    let offline_ctx = GraphContext::new();
    let offline: Vec<u64> = clean
        .iter()
        .map(|q| {
            offline_model
                .estimate_with(q, &g, &offline_ctx)
                .unwrap()
                .to_bits()
        })
        .collect();

    let model = NeurSc::new(small_config(2), 42);
    let cfg = ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    };
    let server = serve(model, g.clone(), cfg, Arc::new(Recorder::new())).unwrap();
    let addr = server.local_addr().to_string();

    // Admin connection hammers reloads (good and corrupt) while the data
    // connection pipelines the full workload.
    let admin = std::thread::spawn({
        let addr = addr.clone();
        let good = good_path.clone();
        let corrupt = corrupt_path.clone();
        move || {
            let mut c = Client::connect_tcp(&addr).unwrap();
            for i in 0..10u64 {
                let path = if i % 2 == 0 { &good } else { &corrupt };
                let reply = c.request(&client::reload_request(1000 + i, path)).unwrap();
                if i % 2 == 0 {
                    assert!(reply.contains("\"reloaded\":true"), "{reply}");
                } else {
                    // Corrupt file: typed error, old model keeps serving.
                    assert!(reply.contains("\"kind\":\"corrupt\""), "{reply}");
                }
            }
        }
    });

    let mut c = Client::connect_tcp(&addr).unwrap();
    for (i, q) in clean.iter().enumerate() {
        c.send_line(&client::estimate_request(i as u64, q)).unwrap();
    }
    let mut got = HashMap::new();
    for _ in 0..clean.len() {
        let v = neursc_serve::json::parse(&c.recv_line().unwrap()).unwrap();
        let id = v.get("id").and_then(Json::as_u64).unwrap();
        got.insert(id, v);
    }
    admin.join().unwrap();

    for (i, bits) in offline.iter().enumerate() {
        let v = &got[&(i as u64)];
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            v.render()
        );
        let est = v.get("estimate").and_then(Json::as_f64).unwrap();
        assert_eq!(
            est.to_bits(),
            *bits,
            "item {i}: reload changed the bits (same weights swapped in)"
        );
    }

    server.shutdown();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_request_budgets_and_stats_work_over_the_wire() {
    let (g, clean) = workload(11);
    let model = NeurSc::new(small_config(1), 42);
    let server = serve(model, g, ServeConfig::default(), Arc::new(Recorder::new())).unwrap();
    let mut c = Client::connect_tcp(server.local_addr()).unwrap();

    // A starved per-request step cap degrades this request only.
    let frame = client::estimate_frame(1, Single(&clean[0]), None, Some(1), None, None);
    let starved = c.request(&frame).unwrap();
    let v = neursc_serve::json::parse(&starved).unwrap();
    assert_eq!(
        v.get("kind").and_then(Json::as_str),
        Some("budget"),
        "{starved}"
    );

    // The same query unbudgeted succeeds.
    let ok = c.request(&client::estimate_request(2, &clean[0])).unwrap();
    assert!(ok.contains("\"ok\":true"), "{ok}");

    // Stats: embedded metrics registry, checksum, served count.
    let stats = c.request(&client::stats_request(3)).unwrap();
    let v = neursc_serve::json::parse(&stats).unwrap();
    let s = v.get("stats").unwrap();
    assert_eq!(s.get("served").and_then(Json::as_u64), Some(2), "{stats}");
    assert!(s.get("model_checksum").and_then(Json::as_str).is_some());
    assert!(s.get("metrics").is_some(), "metrics registry embedded");

    c.send_line(&client::shutdown_request(4)).unwrap();
    let _ = c.recv_line().unwrap();
    server.join().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_serves_and_drains() {
    let (g, clean) = workload(3);
    let path = std::env::temp_dir().join(format!("neursc_serve_{}.sock", std::process::id()));
    let model = NeurSc::new(small_config(1), 42);
    let cfg = ServeConfig {
        listen: Listen::Unix(path.clone()),
        ..ServeConfig::default()
    };
    let server = serve(model, g, cfg, Arc::new(Recorder::new())).unwrap();
    let mut c = Client::connect_unix(&path).unwrap();
    let reply = c.request(&client::estimate_request(1, &clean[0])).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    c.send_line(&client::shutdown_request(2)).unwrap();
    let _ = c.recv_line().unwrap();
    server.join().unwrap();
    assert!(!path.exists(), "socket file cleaned up on drain");
}

#[test]
fn a_restarted_daemon_answers_bit_identically() {
    // The in-process restart drill: a second incarnation on the same model
    // and graph starts with nothing but what it loaded, builds its profile
    // cache on the first request exactly as the first one did, and answers
    // bit-identically.
    let (g, clean) = workload(5);
    let first_reply = || -> u64 {
        let recorder = Arc::new(Recorder::new());
        let model = NeurSc::new(small_config(1), 42);
        let server = serve(model, g.clone(), ServeConfig::default(), recorder.clone()).unwrap();
        let mut c = Client::connect_tcp(server.local_addr()).unwrap();
        let reply = c.request(&client::estimate_request(1, &clean[0])).unwrap();
        let v = neursc_serve::json::parse(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
        c.send_line(&client::shutdown_request(2)).unwrap();
        let _ = c.recv_line().unwrap();
        server.join().unwrap();
        assert_eq!(
            recorder.metrics().snapshot().counter("cache.profile.miss"),
            1
        );
        v.get("estimate").and_then(Json::as_f64).unwrap().to_bits()
    };
    let first = first_reply();
    assert_eq!(
        first_reply(),
        first,
        "restarted daemon must answer bit-identically"
    );
}

#[test]
fn retried_idempotent_requests_replay_bit_identically() {
    // The crash-recovery contract for clients: a request retried with the
    // same idempotency seqno (as RetryClient does after a reconnect) is
    // never processed twice — the daemon replays the cached reply frame
    // byte-for-byte, and the result stays bit-identical to offline.
    let (g, clean) = workload(13);
    let offline_model = NeurSc::new(small_config(1), 42);
    let offline = offline_model
        .estimate_with(&clean[0], &g, &GraphContext::new())
        .unwrap();

    let model = NeurSc::new(small_config(1), 42);
    let server = serve(model, g, ServeConfig::default(), Arc::new(Recorder::new())).unwrap();
    let addr = server.local_addr().to_string();

    let frame = client::estimate_frame(1, Single(&clean[0]), None, None, Some(41), Some(7777));
    let mut c = Client::connect_tcp(&addr).unwrap();
    let first = c.request(&frame).unwrap();
    let v = neursc_serve::json::parse(&first).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{first}");
    assert_eq!(
        v.get("estimate").and_then(Json::as_f64).unwrap().to_bits(),
        offline.to_bits(),
        "served estimate not bit-identical to offline"
    );
    assert_eq!(
        v.get("idem").and_then(Json::as_u64),
        Some(41),
        "reply must echo the idempotency seqno: {first}"
    );

    // Retransmit on the same connection, then again from a brand-new
    // connection (the post-reconnect case — the session token carries the
    // idempotency scope across the reconnect): both replies are replays,
    // byte-for-byte identical to the acknowledged original.
    let again = c.request(&frame).unwrap();
    assert_eq!(
        again, first,
        "same-connection retry not a bit-identical replay"
    );
    let mut c2 = Client::connect_tcp(&addr).unwrap();
    let after_reconnect = c2.request(&frame).unwrap();
    assert_eq!(
        after_reconnect, first,
        "post-reconnect retry not a bit-identical replay"
    );

    // The work ran once: replays never hit the estimator.
    let stats = c.request(&client::stats_request(9)).unwrap();
    let v = neursc_serve::json::parse(&stats).unwrap();
    assert_eq!(
        v.get("stats").unwrap().get("served").and_then(Json::as_u64),
        Some(1),
        "a replayed request must not be re-processed: {stats}"
    );

    // A different query under the same idem seqno is a different key
    // (the replay digest covers the content): served fresh, not
    // mis-replayed.
    let other = client::estimate_frame(2, Single(&clean[1]), None, None, Some(41), Some(7777));
    let fresh = c.request(&other).unwrap();
    let v = neursc_serve::json::parse(&fresh).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{fresh}");
    assert_ne!(fresh, first);

    let served = |c: &mut Client| {
        let stats = c.request(&client::stats_request(90)).unwrap();
        let v = neursc_serve::json::parse(&stats).unwrap();
        v.get("stats")
            .unwrap()
            .get("served")
            .and_then(Json::as_u64)
            .unwrap()
    };
    let base = served(&mut c);

    // A *different client* (new session) sending the same query with the
    // same idem seqno must not be handed the first client's cached reply:
    // its request is processed fresh.
    let other_session =
        client::estimate_frame(1, Single(&clean[0]), None, None, Some(41), Some(8888));
    let reply = c.request(&other_session).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert_eq!(
        served(&mut c),
        base + 1,
        "a different session must be processed fresh, not replayed"
    );

    // Same session/idem/query but a different per-request budget is a
    // different replay identity: processed fresh (a cached reply under a
    // different deadline could be a budget verdict, not this request's
    // answer).
    let other_deadline = client::estimate_frame(
        1,
        Single(&clean[0]),
        Some(60_000),
        None,
        Some(41),
        Some(7777),
    );
    let reply = c.request(&other_deadline).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert_eq!(
        served(&mut c),
        base + 2,
        "a different deadline must be processed fresh, not replayed"
    );

    // Sessionless idem requests are scoped to their connection: a
    // same-connection retransmit replays, but the same frame from another
    // connection is processed fresh (no cross-client collision).
    let sessionless = client::estimate_frame(3, Single(&clean[0]), None, None, Some(41), None);
    let first_nosess = c.request(&sessionless).unwrap();
    assert!(first_nosess.contains("\"ok\":true"), "{first_nosess}");
    let again_nosess = c.request(&sessionless).unwrap();
    assert_eq!(
        again_nosess, first_nosess,
        "same-connection sessionless retry must replay"
    );
    assert_eq!(served(&mut c), base + 3, "the replay must not re-process");
    let mut c3 = Client::connect_tcp(&addr).unwrap();
    let cross = c3.request(&sessionless).unwrap();
    assert!(cross.contains("\"ok\":true"), "{cross}");
    assert_eq!(
        served(&mut c3),
        base + 4,
        "a sessionless idem frame from another connection is a fresh request"
    );

    c.send_line(&client::shutdown_request(99)).unwrap();
    let _ = c.recv_line().unwrap();
    server.join().unwrap();
}

#[test]
fn retry_client_results_match_offline_bit_for_bit() {
    // RetryClient end-to-end: idem stamping + deadline-derived timeout on
    // a healthy server changes nothing about the answer.
    let (g, clean) = workload(17);
    let offline_model = NeurSc::new(small_config(1), 42);
    let ctx = GraphContext::new();

    let model = NeurSc::new(small_config(1), 42);
    let server = serve(
        model,
        g.clone(),
        ServeConfig::default(),
        Arc::new(Recorder::new()),
    )
    .unwrap();
    let mut rc =
        neursc_serve::RetryClient::tcp(server.local_addr(), neursc_serve::RetryPolicy::default());
    for (i, q) in clean.iter().take(6).enumerate() {
        let offline = offline_model.estimate_with(q, &g, &ctx).unwrap();
        let reply = rc.estimate(i as u64, q, Some(10_000), None).unwrap();
        let v = neursc_serve::json::parse(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
        assert_eq!(
            v.get("estimate").and_then(Json::as_f64).unwrap().to_bits(),
            offline.to_bits(),
            "item {i}: RetryClient result not bit-identical to offline"
        );
    }
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn single_vertex_and_disconnected_queries_serve_correctly() {
    let (g, _) = workload(5);
    // A single-vertex query, one with a label absent from G, and a
    // disconnected query (edge + isolated vertex): all must come back
    // `ok` over the wire, bit-identical to the offline component-product
    // routing — never a panic frame, never a spurious zero.
    let batch = vec![
        Graph::from_edges(1, &[0], &[]).unwrap(),
        Graph::from_edges(1, &[99], &[]).unwrap(),
        Graph::from_edges(3, &[0, 1, 2], &[(0, 1)]).unwrap(),
    ];

    let offline_model = NeurSc::new(small_config(1), 42);
    let ctx = GraphContext::new();
    let offline = offline_model.estimate_batch(&batch, &g, &ctx);
    assert!(
        offline.iter().all(|r| r.is_ok()),
        "offline baseline must accept these queries: {offline:?}"
    );
    // The absent-label query is trivially zero; the other two are not.
    assert_eq!(offline[1].as_ref().unwrap().count, 0.0);
    assert!(offline[0].as_ref().unwrap().count > 0.0);

    let model = NeurSc::new(small_config(1), 42);
    let server = serve(model, g, ServeConfig::default(), Arc::new(Recorder::new())).unwrap();
    let served = run_pipelined(server.local_addr(), &batch);
    server.join().unwrap();
    assert_matches_offline(&offline, &served, "edge-shape queries");
}

/// Offline replication of the daemon's routed batch: partition by the
/// same `route()` decisions, remap the seq-keyed poisons onto
/// partition-local slots, run each partition through its backend.
fn offline_routed(
    batch: &[Graph],
    g: &Graph,
    choice: BackendChoice,
    rcfg: &RouterConfig,
) -> Vec<Result<EstimateDetail, NeurScError>> {
    let west = NeurSc::new(small_config(1), 42);
    let sampler = SampleEstimator::new(SampleConfig::from_model_config(&west.config));
    let routes: Vec<Routed> = batch
        .iter()
        .map(|q| route(choice, rcfg, q, g, None))
        .collect();
    let mut out: Vec<Option<Result<EstimateDetail, NeurScError>>> =
        batch.iter().map(|_| None).collect();
    for backend in [Routed::West, Routed::Sample] {
        let slots: Vec<usize> = (0..batch.len()).filter(|&i| routes[i] == backend).collect();
        if slots.is_empty() {
            continue;
        }
        let queries: Vec<Graph> = slots.iter().map(|&i| batch[i].clone()).collect();
        let mut plan = FaultPlan::new();
        for (part_slot, &i) in slots.iter().enumerate() {
            if i == PANIC_ITEM {
                plan = plan.panic_on(part_slot);
            }
            if i == STARVED_ITEM {
                plan = plan.starve_budget_on(part_slot);
            }
        }
        let ctx = GraphContext::with_faults(plan);
        let est: &dyn Estimator = match backend {
            Routed::West => &west,
            Routed::Sample => &sampler,
        };
        let part = est.estimate_batch(&queries, g, &ctx);
        for (&i, r) in slots.iter().zip(part) {
            out[i] = Some(r);
        }
    }
    out.into_iter().map(Option::unwrap).collect()
}

#[test]
fn served_sample_backend_is_bit_identical_to_offline_at_any_thread_count() {
    let (g, clean) = workload(7);
    let batch = poisoned_batch(&clean);

    let offline = offline_routed(&batch, &g, BackendChoice::Sample, &RouterConfig::default());
    // The same four poisons produce typed errors; everything else is ok
    // and carries a confidence interval.
    assert_eq!(offline.iter().filter(|d| d.is_ok()).count(), 28);
    for d in offline.iter().flatten() {
        assert!(d.ci.is_some(), "sampling results must carry an interval");
    }

    for threads in [1, 2, 4] {
        let model = NeurSc::new(small_config(threads), 42);
        let cfg = ServeConfig {
            backend: BackendChoice::Sample,
            ..serve_config(threads)
        };
        let server = serve(model, g.clone(), cfg, Arc::new(Recorder::new())).unwrap();
        let served = run_pipelined(server.local_addr(), &batch);
        server.join().unwrap();
        assert_matches_offline(&offline, &served, &format!("sample threads={threads}"));
        // The interval rides the wire bit-identically too.
        for (i, off) in offline.iter().enumerate() {
            if let Ok(d) = off {
                let ci = d.ci.unwrap();
                let v = &served[&(i as u64)];
                let low = v.get("ci_low").and_then(Json::as_f64).unwrap();
                let high = v.get("ci_high").and_then(Json::as_f64).unwrap();
                assert_eq!(low.to_bits(), ci.low.to_bits(), "item {i} ci_low");
                assert_eq!(high.to_bits(), ci.high.to_bits(), "item {i} ci_high");
            }
        }
    }
}

#[test]
fn served_auto_backend_routes_deterministically_and_matches_offline() {
    let (g, clean) = workload(7);
    let batch = poisoned_batch(&clean);

    // Pick a volume cap at the median so the batch genuinely splits.
    let mut vols: Vec<u64> = batch.iter().map(|q| candidate_volume(q, &g)).collect();
    vols.sort_unstable();
    let rcfg = RouterConfig {
        volume_cap: vols[batch.len() / 2],
        cands_per_ms: RouterConfig::default().cands_per_ms,
    };
    let routes: Vec<Routed> = batch
        .iter()
        .map(|q| route(BackendChoice::Auto, &rcfg, q, &g, None))
        .collect();
    let n_sample = routes.iter().filter(|r| **r == Routed::Sample).count();
    let n_west = batch.len() - n_sample;
    assert!(
        n_sample > 0 && n_west > 0,
        "the cost model must split this batch (west={n_west}, sample={n_sample})"
    );

    let offline = offline_routed(&batch, &g, BackendChoice::Auto, &rcfg);

    for threads in [1, 2, 4] {
        let model = NeurSc::new(small_config(threads), 42);
        let cfg = ServeConfig {
            backend: BackendChoice::Auto,
            router: rcfg,
            ..serve_config(threads)
        };
        let server = serve(model, g.clone(), cfg, Arc::new(Recorder::new())).unwrap();
        let addr = server.local_addr().to_string();

        let mut c = Client::connect_tcp(&addr).unwrap();
        for (i, q) in batch.iter().enumerate() {
            c.send_line(&client::estimate_request(i as u64, q)).unwrap();
        }
        let mut served = HashMap::new();
        for _ in 0..batch.len() {
            let v = neursc_serve::json::parse(&c.recv_line().unwrap()).unwrap();
            let id = v.get("id").and_then(Json::as_u64).unwrap();
            served.insert(id, v);
        }

        // Every routing decision is counted and exposed via `stats`.
        let stats = c.request(&client::stats_request(9999)).unwrap();
        let v = neursc_serve::json::parse(&stats).unwrap();
        let s = v.get("stats").unwrap();
        assert_eq!(s.get("backend").and_then(Json::as_str), Some("auto"));
        let counters = s.get("metrics").unwrap().get("counters").unwrap();
        assert_eq!(
            counters.get("router.backend.west").and_then(Json::as_u64),
            Some(n_west as u64),
            "threads={threads}: west decisions miscounted: {stats}"
        );
        assert_eq!(
            counters.get("router.backend.sample").and_then(Json::as_u64),
            Some(n_sample as u64),
            "threads={threads}: sample decisions miscounted: {stats}"
        );

        c.send_line(&client::shutdown_request(10_000)).unwrap();
        let _ = c.recv_line().unwrap();
        server.join().unwrap();
        assert_matches_offline(&offline, &served, &format!("auto threads={threads}"));
    }
}

#[test]
fn one_daemon_builds_its_profiles_once_across_a_hot_reload() {
    // The daemon serves the one data graph it was started on, and every
    // model it reloads filters at the same radius, so its profile cache
    // holds one entry for its whole life: one miss, then hits — through a
    // reload — with every reply still bit-identical to offline.
    let (g, clean) = workload(7);
    let offline = NeurSc::new(small_config(1), 42).estimate_batch(&clean, &g, &GraphContext::new());
    let dir = std::env::temp_dir().join(format!("neursc_serve_one_graph_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("same.model");
    let reloaded = NeurSc::new(small_config(1), 42);
    assert_eq!(
        reloaded.config.filter.profile_radius,
        small_config(2).filter.profile_radius
    );
    save_model(&reloaded, &path).unwrap();

    let recorder = Arc::new(Recorder::new());
    let model = NeurSc::new(small_config(2), 42);
    let cfg = ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    };
    let server = serve(model, g, cfg, recorder.clone()).unwrap();
    let mut c = Client::connect_tcp(server.local_addr()).unwrap();
    let pass = |c: &mut Client, first_id: u64| {
        for (i, q) in clean.iter().enumerate() {
            c.send_line(&client::estimate_request(first_id + i as u64, q))
                .unwrap();
        }
        let mut by_index = HashMap::new();
        for _ in 0..clean.len() {
            let v = neursc_serve::json::parse(&c.recv_line().unwrap()).unwrap();
            let id = v.get("id").and_then(Json::as_u64).unwrap();
            by_index.insert(id - first_id, v);
        }
        by_index
    };
    let before = pass(&mut c, 0);
    let reply = c.request(&client::reload_request(500, &path)).unwrap();
    assert!(reply.contains("\"reloaded\":true"), "{reply}");
    let after = pass(&mut c, 1000);
    assert_matches_offline(&offline, &before, "before reload");
    assert_matches_offline(&offline, &after, "after reload");

    let stats = c.request(&client::stats_request(2000)).unwrap();
    let v = neursc_serve::json::parse(&stats).unwrap();
    let counters = v
        .get("stats")
        .and_then(|s| s.get("metrics"))
        .and_then(|m| m.get("counters"))
        .unwrap();
    assert_eq!(
        counters.get("cache.profile.miss").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    c.send_line(&client::shutdown_request(2001)).unwrap();
    let _ = c.recv_line().unwrap();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
