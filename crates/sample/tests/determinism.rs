//! Bit-determinism acceptance for the sampling backend: the same config
//! produces byte-identical estimates and intervals at any thread count,
//! and the batch entry point contains per-item faults exactly like WEst.

use neursc_core::{
    Estimator, FaultPlan, GraphContext, NeurSc, NeurScConfig, NeurScError, ObsSink, Recorder,
};
use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use neursc_sample::{SampleConfig, SampleEstimator};
use rand::SeedableRng;
use std::sync::Arc;

fn workload(seed: u64) -> (Graph, Vec<Graph>) {
    let g = erdos_renyi(120, 360, 4, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let queries = (0..12)
        .map(|_| sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap())
        .collect();
    (g, queries)
}

fn estimator(threads: usize) -> SampleEstimator {
    let mut cfg = SampleConfig::default().with_trials(512).with_seed(9);
    cfg.threads = threads;
    SampleEstimator::new(cfg)
}

#[test]
fn estimates_and_intervals_are_bit_identical_across_thread_counts() {
    let (g, queries) = workload(21);
    let baseline: Vec<_> = {
        let est = estimator(1);
        let ctx = GraphContext::new();
        est.estimate_batch(&queries, &g, &ctx)
    };
    for threads in [2, 4] {
        let est = estimator(threads);
        let ctx = GraphContext::new();
        let got = est.estimate_batch(&queries, &g, &ctx);
        for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                a.count.to_bits(),
                b.count.to_bits(),
                "item {i}: threads=1 vs threads={threads} differ"
            );
            let (ca, cb) = (a.ci.unwrap(), b.ci.unwrap());
            assert_eq!(ca.low.to_bits(), cb.low.to_bits(), "item {i} ci.low");
            assert_eq!(ca.high.to_bits(), cb.high.to_bits(), "item {i} ci.high");
        }
    }
}

#[test]
fn single_query_path_matches_batch_path_bitwise() {
    // Batch composition must not leak into per-item results: each item's
    // trials are seeded from the config seed alone.
    let (g, queries) = workload(23);
    let est = estimator(2);
    let ctx = GraphContext::new();
    let batched = est.estimate_batch(&queries, &g, &ctx);
    for (i, q) in queries.iter().enumerate() {
        let solo = est
            .estimate_detailed_with(q, &g, &GraphContext::new())
            .unwrap();
        let b = batched[i].as_ref().unwrap();
        assert_eq!(
            solo.count.to_bits(),
            b.count.to_bits(),
            "item {i}: solo vs batched differ"
        );
    }
}

#[test]
fn batch_faults_poison_their_slot_only() {
    let (g, queries) = workload(25);
    let ctx = GraphContext::with_faults(FaultPlan::new().panic_on(2).starve_budget_on(5));
    let est = estimator(2);
    let results = est.estimate_batch(&queries, &g, &ctx);
    for (i, r) in results.iter().enumerate() {
        match i {
            2 => assert!(
                matches!(r, Err(NeurScError::Panicked { .. })),
                "item 2: {r:?}"
            ),
            5 => assert!(
                matches!(r, Err(NeurScError::Budget { .. })),
                "item 5: {r:?}"
            ),
            _ => assert!(r.is_ok(), "item {i} must be isolated from poisons: {r:?}"),
        }
    }
}

#[test]
fn different_seeds_give_different_draws_same_seed_gives_same() {
    let (g, queries) = workload(27);
    let ctx = GraphContext::new();
    let mut any_differ = false;
    for q in &queries {
        let a = SampleEstimator::new(SampleConfig::default().with_seed(1))
            .estimate_detailed_with(q, &g, &ctx)
            .unwrap();
        let b = SampleEstimator::new(SampleConfig::default().with_seed(1))
            .estimate_detailed_with(q, &g, &ctx)
            .unwrap();
        let c = SampleEstimator::new(SampleConfig::default().with_seed(2))
            .estimate_detailed_with(q, &g, &ctx)
            .unwrap();
        assert_eq!(a.count.to_bits(), b.count.to_bits());
        // A query whose walks all carry the same weight estimates
        // identically under any seed; across the workload at least one
        // query must expose the seed in its draws.
        any_differ |= a.count.to_bits() != c.count.to_bits();
    }
    assert!(any_differ, "seed 1 and seed 2 agreed on every query");
}

/// The child span names under each `filter.candidates` span `est` emits
/// while estimating `q`.
fn filter_subtrees(est: &impl Estimator, q: &Graph, g: &Graph) -> Vec<Vec<&'static str>> {
    let rec = Arc::new(Recorder::new());
    let sink: Arc<dyn ObsSink> = rec.clone();
    est.estimate_detailed_with(q, g, &GraphContext::with_obs(sink))
        .unwrap();
    let spans = rec.spans();
    spans
        .iter()
        .filter(|f| f.name == "filter.candidates")
        .map(|f| {
            spans
                .iter()
                .filter(|c| c.lane == f.lane && c.parent == Some(f.seq))
                .map(|c| c.name)
                .collect()
        })
        .collect()
}

#[test]
fn filtering_is_traced_with_the_same_subtree_as_west() {
    let (g, queries) = workload(29);
    let cfg = NeurScConfig::small();
    let west = NeurSc::new(cfg.clone(), 29);
    let sample = SampleEstimator::new(SampleConfig::from_model_config(&cfg).with_trials(64));
    for q in &queries[..4] {
        let got = filter_subtrees(&sample, q, &g);
        assert!(!got.is_empty(), "no filter.candidates span");
        for children in &got {
            assert_eq!(children, &["filter.local_prune", "filter.refine"]);
        }
        assert_eq!(got, filter_subtrees(&west, q, &g));
    }
}
