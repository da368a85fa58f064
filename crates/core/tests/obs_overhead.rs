//! No-op-sink overhead gate for the observability layer.
//!
//! DESIGN.md §8 promises that a pipeline built against the default
//! [`neursc_core::obs::NoopSink`] pays < 2% over a hypothetical build with
//! no instrumentation at all. This test measures both sides of that claim:
//!
//! 1. **Per-operation cost** — a tight loop over `scope` + `Span::enter`
//!    against the no-op sink gives the nanoseconds one disabled span
//!    costs (a TLS lookup, an `enabled()` check, and an inert guard).
//! 2. **Per-query cost** — wall-clock of a single warm `estimate` on a
//!    small model, which bounds the number of spans a query opens.
//!
//! The overhead ratio is `span_ns × spans_per_query / query_ns`. The span
//! count per query is taken from an *enabled* Recorder run of the same
//! query — the honest upper bound on what the no-op path skips. The bound
//! bites at the opt-level that ships, so `scripts/ci.sh` also runs it
//! under `--release`:
//!
//! ```text
//! cargo test --release -p neursc-core --test obs_overhead -- --nocapture
//! ```

use neursc_core::obs::{self, NoopSink, ObsSink, Recorder, Span};
use neursc_core::{GraphContext, NeurSc, NeurScConfig};
use neursc_graph::generate::{generate, DegreeModel, GraphSpec};
use neursc_graph::sample::{sample_query, QuerySampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const MAX_OVERHEAD: f64 = 0.02;
const SPAN_ITERS: u64 = 2_000_000;
const QUERY_REPS: u32 = 20;

#[test]
fn noop_sink_overhead_stays_under_two_percent() {
    // --- 1. Disabled-span cost ------------------------------------------
    let noop: Arc<dyn ObsSink> = Arc::new(NoopSink);
    let t0 = Instant::now();
    let mut sink_hits = 0u64;
    for _ in 0..SPAN_ITERS {
        obs::scope(&noop, obs::lane::ROOT, || {
            let _sp = Span::enter("bench.noop");
            sink_hits += 1;
        });
    }
    let span_ns = t0.elapsed().as_nanos() as f64 / SPAN_ITERS as f64;
    assert_eq!(sink_hits, SPAN_ITERS); // keep the loop from being optimized out

    // --- 2. Spans per query + query cost --------------------------------
    let g = generate(
        &GraphSpec {
            n_vertices: 1000,
            avg_degree: 6.0,
            n_labels: 6,
            label_zipf: 0.8,
            model: DegreeModel::Community {
                community_size: 25,
                intra_fraction: 0.8,
            },
        },
        3,
    );
    let mut rng = StdRng::seed_from_u64(3);
    let q = sample_query(&g, &QuerySampler::induced(5), &mut rng).unwrap();
    let mut cfg = NeurScConfig::small();
    cfg.max_substructure_vertices = Some(64);
    let model = NeurSc::new(cfg, 3);

    // Count spans with a real Recorder (warm cache, one query).
    let rec = Arc::new(Recorder::new());
    let sink: Arc<dyn ObsSink> = rec.clone();
    let rctx = GraphContext::with_obs(sink);
    let _ = model.estimate_detailed_with(&q, &g, &rctx).unwrap();
    rec.reset_spans();
    let _ = model.estimate_detailed_with(&q, &g, &rctx).unwrap();
    let spans_per_query = rec.spans().len() as f64;

    // Time the same warm query against the default (no-op) context.
    let ctx = GraphContext::new();
    let _ = model.estimate_detailed_with(&q, &g, &ctx).unwrap(); // warm
    let t1 = Instant::now();
    for _ in 0..QUERY_REPS {
        let _ = model.estimate_detailed_with(&q, &g, &ctx).unwrap();
    }
    let query_ns = t1.elapsed().as_nanos() as f64 / QUERY_REPS as f64;

    let overhead = span_ns * spans_per_query / query_ns;
    println!(
        "disabled span {span_ns:.1} ns/op over {SPAN_ITERS} iterations; per query: \
         {spans_per_query:.0} spans, {:.2} ms → no-op-sink overhead {:.4}% (bound {:.1}%)",
        query_ns / 1e6,
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
    assert!(
        overhead <= MAX_OVERHEAD,
        "no-op sink overhead {:.4}% exceeds the documented {:.1}% bound",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
}
