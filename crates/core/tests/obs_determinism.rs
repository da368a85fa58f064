//! Determinism of the observability layer itself (DESIGN.md §8).
//!
//! The spans and metrics a run emits are part of its observable output, so
//! they get the same guarantee as the estimates: **bit-identical across
//! thread counts**. Two mechanisms carry it:
//!
//! * spans live on logical *lanes* keyed by batch index (not OS thread),
//!   with per-lane sequence numbers and tick clocks, so the canonical
//!   Chrome trace export is a pure function of the input;
//! * counters are bumped on the coordinating thread after fan-in, in batch
//!   order, so outcome tallies never race.

use neursc_core::obs::TraceTime;
use neursc_core::{
    Estimator, FaultPlan, GraphContext, MetricsSnapshot, NeurSc, NeurScConfig, ObsSink,
    Parallelism, Recorder,
};
use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn tiny_config(threads: usize) -> NeurScConfig {
    let mut c = NeurScConfig::small();
    c.parallelism = Parallelism::with_threads(threads);
    c
}

fn workload(seed: u64) -> (Graph, Vec<Graph>) {
    let g = erdos_renyi(150, 450, 4, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = (0..32)
        .map(|_| sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap())
        .collect();
    (g, queries)
}

/// The deterministic projection of a span: everything except wall-clock
/// fields (`start_ns`, `dur_ns`, `os_tid`), which legitimately vary.
type SpanKey = (u64, u64, Option<u64>, &'static str, Option<&'static str>);

/// Runs a 32-query batch at `threads` workers under a fresh [`Recorder`],
/// returning the span projection, the metrics snapshot and the canonical
/// trace export.
fn traced_batch(threads: usize, faults: FaultPlan) -> (Vec<SpanKey>, MetricsSnapshot, String) {
    let model = NeurSc::new(tiny_config(threads), 42);
    let (g, queries) = workload(7);

    let rec = Arc::new(Recorder::new());
    let sink: Arc<dyn ObsSink> = rec.clone();
    let mut ctx = GraphContext::with_obs(sink);
    ctx.faults = faults;
    let details = model.estimate_batch(&queries, &g, &ctx);
    assert_eq!(details.len(), queries.len());

    let spans = rec
        .spans()
        .iter()
        .map(|s| (s.lane, s.seq, s.parent, s.name, s.tag))
        .collect();
    let snap = rec.metrics().snapshot();
    let trace = rec.chrome_trace_json(TraceTime::Canonical);
    (spans, snap, trace)
}

#[test]
fn span_tree_and_metrics_are_thread_count_invariant() {
    let (spans1, snap1, trace1) = traced_batch(1, FaultPlan::new());
    let (spans2, snap2, trace2) = traced_batch(2, FaultPlan::new());
    let (spans4, snap4, trace4) = traced_batch(4, FaultPlan::new());

    // Identical span forests: same lanes, sequence numbers, parent links,
    // names and tags — regardless of which OS thread ran which lane.
    assert_eq!(spans1, spans2);
    assert_eq!(spans1, spans4);
    assert!(!spans1.is_empty());

    // Identical counters and histograms (wall-clock histograms observe the
    // same *set* of stages; their ns values differ, so compare counters
    // and histogram counts, not sums).
    assert_eq!(snap1.counters, snap2.counters);
    assert_eq!(snap1.counters, snap4.counters);
    let shape = |s: &MetricsSnapshot| {
        s.histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.count))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&snap1), shape(&snap2));
    assert_eq!(shape(&snap1), shape(&snap4));

    // The canonical Chrome export is byte-identical.
    assert_eq!(trace1, trace2);
    assert_eq!(trace1, trace4);

    // The batch actually exercised the pipeline: all 32 queries resolved,
    // and every query after the warm-up hit the shared profile cache.
    let ok = snap1.counter("query.ok")
        + snap1.counter("query.degraded")
        + snap1.counter("query.trivially_zero");
    assert_eq!(ok, 32);
    assert_eq!(snap1.counter("cache.profile.miss"), 1);
    assert!(snap1.counter("cache.profile.hit") >= 32);

    // Spans cover each stage of the pipeline at least once.
    for stage in [
        "pipeline.warmup",
        "pipeline.query",
        "filter.candidates",
        "extract.components",
        "gnn.forward",
    ] {
        assert!(
            spans1.iter().any(|s| s.3 == stage),
            "missing stage span {stage:?}"
        );
    }
}

#[test]
fn poisoned_slot_tags_its_span_without_perturbing_others() {
    let plan = FaultPlan::new().panic_on(5);
    let (spans2, snap2, _) = traced_batch(2, plan.clone());
    let (spans4, snap4, _) = traced_batch(4, plan);

    // The fault is deterministic, so the traced output still is too.
    assert_eq!(spans2, spans4);
    assert_eq!(snap2.counters, snap4.counters);

    // Exactly one query panicked, and its `pipeline.query` span carries the
    // unwind tag (the frame guard closes open spans as `"panic"` when the
    // worker dies); the other 31 resolved normally.
    assert_eq!(snap2.counter("query.panicked"), 1);
    let ok = snap2.counter("query.ok")
        + snap2.counter("query.degraded")
        + snap2.counter("query.trivially_zero");
    assert_eq!(ok, 31);
    let tagged: Vec<_> = spans2
        .iter()
        .filter(|s| s.3 == "pipeline.query" && s.4 == Some("panic"))
        .collect();
    assert_eq!(tagged.len(), 1);
    // Lane 1 + i for batch item i → the poisoned slot is lane 6.
    assert_eq!(tagged[0].0, 6);

    // Untouched slots match a fault-free run span-for-span.
    let (clean, clean_snap, _) = traced_batch(2, FaultPlan::new());
    let strip = |spans: &[SpanKey]| {
        spans
            .iter()
            .filter(|s| s.0 != 6)
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(&spans2), strip(&clean));
    // Cache metrics are unaffected by the poisoned slot's absence only in
    // its own contribution; every surviving query still hit the cache.
    assert_eq!(clean_snap.counter("cache.profile.miss"), 1);
    assert!(snap2.counter("cache.profile.hit") >= 31);
}
