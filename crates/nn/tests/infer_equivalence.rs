//! Fused-inference equivalence acceptance suite (tentpole gate).
//!
//! The contract, on the standard 32-query workload: the fused tape-free
//! inference path (the only one `estimate*` runs) produces
//! **bit-identical** f32 estimates to the tape forward that training
//! uses, at every worker thread count.
//!
//! This lives in `neursc-nn` (dev-depending on `neursc-core`) so the
//! crate that owns the fused kernels also owns their end-to-end gate.

use neursc_core::train::{forward_prepared, prepare_query_with};
use neursc_core::{GraphContext, NeurSc, NeurScConfig};
use neursc_graph::generate::erdos_renyi;
use neursc_graph::sample::{sample_query, QuerySampler};
use neursc_graph::Graph;
use neursc_nn::Tape;
use rand::SeedableRng;

/// The serve-suite workload: a 150-vertex Erdős–Rényi data graph and 32
/// induced 4-vertex queries.
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
    cfg.parallelism.threads = threads;
    cfg.budget.max_query_vertices = Some(16);
    cfg
}

/// Estimates every query with a fresh seed-42 model through the public
/// (fused) estimation path.
fn estimates(g: &Graph, queries: &[Graph], threads: usize) -> Vec<f64> {
    let model = NeurSc::new(small_config(threads), 42);
    queries
        .iter()
        .map(|q| model.estimate(q, g).expect("estimate"))
        .collect()
}

/// The tape reference: the same seed-42 model's estimates computed from
/// the training forward (`forward_prepared`) — `Σ exp(log-count)` over the
/// prepared substructures, exactly the reduction `estimate_prepared` does.
fn tape_estimates(g: &Graph, queries: &[Graph]) -> Vec<f64> {
    let model = NeurSc::new(small_config(1), 42);
    let ctx = GraphContext::new();
    queries
        .iter()
        .map(|q| {
            let pq = prepare_query_with(q, g, &model.config, 0, &ctx).expect("prepare");
            let mut tape = Tape::new();
            forward_prepared(&model, &mut tape, &pq).map_or(0.0, |(_, zs)| {
                zs.iter()
                    .map(|&z| (tape.value(z).item() as f64).exp())
                    .sum()
            })
        })
        .collect()
}

#[test]
fn fused_f32_is_bit_identical_to_tape_across_threads() {
    let (g, queries) = workload(7);
    let tape = tape_estimates(&g, &queries);
    for threads in [1, 2, 4] {
        let fused = estimates(&g, &queries, threads);
        for (i, (f, t)) in fused.iter().zip(&tape).enumerate() {
            assert_eq!(
                f.to_bits(),
                t.to_bits(),
                "threads={threads} query {i}: fused {f} != tape {t}"
            );
        }
    }
}
