//! The sampling backend against exact counts on a fixed seeded workload.
//!
//! 24 induced 4-vertex queries on a 1500-vertex community graph, each
//! labelled with its exact count by the enumerator, run through the
//! Horvitz–Thompson estimator at 1024 trials per query. The bound — mean
//! relative error ≤ 10 — is a sanity floor, not a quality bar: it catches
//! wholesale breakage of the sampler (a wrong weight, a lost walk), while
//! interval coverage is the oracle's `sampling_ci_coverage` invariant.
//!
//! The test prints the mean and max relative error, how many reported
//! intervals covered the exact count and the sampler's p50 latency per
//! query; EXPERIMENTS.md ("Backend comparison") quotes the release run:
//!
//! ```text
//! cargo test --release -p neursc-sample --test backend_workload -- --nocapture
//! ```

use neursc_core::{Estimator, GraphContext, NeurScConfig};
use neursc_graph::generate::{generate, DegreeModel, GraphSpec};
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use neursc_match::enumerate::count_embeddings;
use neursc_sample::{SampleConfig, SampleEstimator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SEED: u64 = 23;
const QUERIES: usize = 24;
const TRIALS: usize = 1024;
const MAX_MEAN_REL_ERR: f64 = 10.0;

#[test]
fn sampling_backend_stays_near_exact_counts() {
    // A graph small enough that the enumerator can label every query with
    // its exact count, so relative error is against ground truth.
    let g = generate(
        &GraphSpec {
            n_vertices: 1500,
            avg_degree: 6.0,
            n_labels: 4,
            label_zipf: 0.8,
            model: DegreeModel::Community {
                community_size: 30,
                intra_fraction: 0.8,
            },
        },
        SEED,
    );
    // The filter and budget settings of `NeurSc::new(cfg, SEED)`'s config,
    // the construction the serve router uses.
    let mut cfg = NeurScConfig::small();
    cfg.filter.profile_radius = 3;
    cfg.seed = SEED;
    let sampler = SampleEstimator::new(
        SampleConfig::from_model_config(&cfg)
            .with_trials(TRIALS)
            .with_seed(SEED),
    );

    // Induced 4-vertex queries with exact counts; any the enumerator
    // cannot finish under budget is drawn again.
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut queries: Vec<(Graph, u64)> = Vec::new();
    while queries.len() < QUERIES {
        let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).expect("sample query");
        if let Some(exact) = count_embeddings(&q, &g, 50_000_000).exact() {
            queries.push((q, exact));
        }
    }

    let ctx = GraphContext::new();
    // One untimed pass so the data-graph profiles are built before timing:
    // the latency is steady-state cost.
    let _ = sampler.estimate_detailed_with(&queries[0].0, &g, &ctx);
    let mut ns = Vec::with_capacity(QUERIES);
    let mut rel_errs = Vec::with_capacity(QUERIES);
    let (mut covered, mut with_ci) = (0usize, 0usize);
    for (q, exact) in &queries {
        let t = Instant::now();
        let d = sampler
            .estimate_detailed_with(q, &g, &ctx)
            .expect("estimate");
        ns.push(t.elapsed().as_nanos() as u64);
        let exact = *exact as f64;
        rel_errs.push((d.count - exact).abs() / exact.max(1.0));
        if let Some(ci) = d.ci {
            with_ci += 1;
            if ci.low <= exact && exact <= ci.high {
                covered += 1;
            }
        }
    }
    ns.sort_unstable();
    let p50_ms = ns[((ns.len() - 1) as f64 * 0.5).round() as usize] as f64 / 1e6;
    let mean_rel_err = rel_errs.iter().sum::<f64>() / rel_errs.len() as f64;
    let max_rel_err = rel_errs.iter().cloned().fold(0.0, f64::max);
    println!(
        "sample: |V(G)|={} |E(G)|={}, {QUERIES} queries, {TRIALS} trials/query: \
         p50 {p50_ms:.3} ms, rel err mean {mean_rel_err:.4} max {max_rel_err:.4}, \
         CI covered {covered}/{with_ci}",
        g.n_vertices(),
        g.n_edges(),
    );
    assert!(
        mean_rel_err <= MAX_MEAN_REL_ERR,
        "sampling backend drifted far from exact counts (mean rel err {mean_rel_err:.2})"
    );
}
