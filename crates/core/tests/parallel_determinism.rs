//! Bit-level determinism of the parallel estimation pipeline.
//!
//! The tentpole guarantee: with a fixed seed, running with N worker threads
//! produces output **bit-identical** to running sequentially. Two
//! mechanisms make this hold and are exercised together here:
//!
//! * `parallel_map_indexed` stores results in per-index slots and reduces
//!   in index order, so scheduling never changes reduction order;
//! * query preparation derives its RNG per query from the config seed, not
//!   from shared mutable state.

use neursc_core::{Estimator, GraphContext, NeurSc, NeurScConfig};
use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use neursc_match::profile::{paper_data_graph, paper_query_graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_config(threads: usize) -> NeurScConfig {
    let mut c = NeurScConfig::small().with_threads(threads);
    c.pretrain_epochs = 4;
    c.adversarial_epochs = 2;
    c.batch_size = 8;
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

/// Runs the full pipeline (paper §4 example graphs + a 32-query batch on a
/// generated graph) at the given thread count, returning every estimate as
/// raw bits.
fn run_pipeline(threads: usize) -> Vec<u64> {
    let model = NeurSc::new(tiny_config(threads), 42);
    let mut bits = Vec::new();

    // Paper Figure 1 graphs: the worked example from §4.
    let (pq, pg) = (paper_query_graph(), paper_data_graph());
    bits.push(model.estimate(&pq, &pg).unwrap().to_bits());

    // Batched estimation over a shared context.
    let (g, queries) = workload(7);
    let ctx = GraphContext::new();
    for d in model.estimate_batch(&queries, &g, &ctx) {
        bits.push(d.unwrap().count.to_bits());
    }

    // Single-query cached path must agree with the batch.
    bits.push(
        model
            .estimate_with(&queries[0], &g, &ctx)
            .unwrap()
            .to_bits(),
    );
    bits
}

#[test]
fn threads_1_and_4_are_bit_identical() {
    let sequential = run_pipeline(1);
    let parallel = run_pipeline(4);
    assert_eq!(sequential.len(), parallel.len());
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s,
            p,
            "estimate {i} differs between 1 and 4 threads: {} vs {}",
            f64::from_bits(*s),
            f64::from_bits(*p)
        );
    }

    // Training with the parallel preparation path is deterministic too:
    // fit at 1 and 4 threads from identical initial weights must produce
    // identical post-training estimates.
    let (g, queries) = workload(9);
    let labeled: Vec<(Graph, u64)> = queries.iter().take(8).map(|q| (q.clone(), 5)).collect();
    let mut ests = Vec::new();
    for threads in [1, 4] {
        let mut model = NeurSc::new(tiny_config(threads), 42);
        model.fit(&g, &labeled).unwrap();
        ests.push(model.estimate(&queries[0], &g).unwrap().to_bits());
    }
    assert_eq!(
        ests[0], ests[1],
        "post-training estimates differ between 1 and 4 threads"
    );
}
