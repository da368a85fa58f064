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
use neursc_nn::infer::{Arena, InferCtx, InferWeights, QuantMode};
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
    cfg.threads = threads;
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

/// Bit equality where both sides are numbers, and NaN exactly where the
/// other side has NaN (which NaN payload survives is not pinned).
fn same(fused: &[f32], tape: &[f32]) -> bool {
    fused.len() == tape.len()
        && fused
            .iter()
            .zip(tape)
            .all(|(f, t)| f.to_bits() == t.to_bits() || (f.is_nan() && t.is_nan()))
}

/// A weight holding `inf` and one holding NaN lose their finiteness bit in
/// the snapshot, so the matmuls against them keep every zero step — `0 ×
/// inf` is NaN. The poison sits in a weight row that meets a feature no
/// input vertex has: a wrongly skipped zero step would leave those
/// products out. The arena forward must still equal the tape forward, the
/// per-vertex representations `h_q`/`h_sub` and every log-count, NaN
/// positions included.
#[test]
fn non_finite_weights_keep_the_arena_forward_equal_to_the_tape() {
    let (g, queries) = workload(7);
    let mut model = NeurSc::new(small_config(1), 42);
    let ctx = GraphContext::new();
    let prepared: Vec<_> = queries
        .iter()
        .map(|q| prepare_query_with(q, &g, &model.config, 0, &ctx).expect("prepare"))
        .collect();
    let inputs = || {
        prepared
            .iter()
            .flat_map(|pq| std::iter::once(&pq.x_q).chain(pq.subs.iter().map(|s| &s.x)))
    };
    let absent = (0..model.config.features.dim())
        .find(|&k| inputs().all(|x| (0..x.rows()).all(|r| x.row(r)[k] == 0.0)))
        .expect("some feature no vertex has");

    let gin_w = model.west.gin.layers[0].mlp.layers[0].w;
    let inter = model
        .west
        .inter
        .as_ref()
        .expect("the small config is Variant::Full");
    let theta = inter.layers[0].theta;
    let width = |id| model.store.value(id).cols();
    let (gin_at, theta_at) = (absent * width(gin_w) + 3, absent * width(theta) + 5);
    model.store.value_mut(gin_w).data_mut()[gin_at] = f32::INFINITY;
    model.store.value_mut(theta).data_mut()[theta_at] = f32::NAN;
    let weights = InferWeights::from_store(&model.store, QuantMode::F32);
    assert!(!weights.is_finite(gin_w) && !weights.is_finite(theta));
    assert!(model
        .west
        .head
        .params()
        .iter()
        .all(|&id| weights.is_finite(id)));

    let (west, inter) = (
        &model.west,
        model.west.inter.as_ref().expect("Variant::Full"),
    );
    let mut ictx = InferCtx::new(&weights, Arena::new());
    let (mut pairs, mut nan_elements) = (0, 0);
    for (i, pq) in prepared.iter().enumerate() {
        let mut tape = Tape::new();
        let Some((outs, zs)) = forward_prepared(&model, &mut tape, pq) else {
            continue;
        };
        let nq = pq.x_q.rows();
        let hq_intra = west.infer_query_intra(&mut ictx, &pq.x_q, &pq.q_edges);
        for (s, (sub, out)) in pq.subs.iter().zip(&outs).enumerate() {
            let hs_intra = west.gin.infer_forward(&mut ictx, &sub.x, &sub.edges);
            let x_all = ictx.concat_rows(&pq.x_q, &sub.x);
            let h_all = inter.infer_forward(&mut ictx, &x_all, &sub.gb);
            let hq_inter = ictx.slice_rows(&h_all, 0, nq);
            let hs_inter = ictx.slice_rows(&h_all, nq, h_all.rows());
            let h_q = ictx.concat_cols(&hq_intra, &hq_inter);
            let h_sub = ictx.concat_cols(&hs_intra, &hs_inter);
            assert!(
                same(h_q.data(), tape.value(out.h_q).data()),
                "query {i} sub {s}: h_q"
            );
            assert!(
                same(h_sub.data(), tape.value(out.h_sub).data()),
                "query {i} sub {s}: h_sub"
            );
            nan_elements += h_q
                .data()
                .iter()
                .chain(h_sub.data())
                .filter(|x| x.is_nan())
                .count();

            let z =
                west.forward_pair_infer(&mut ictx, &pq.x_q, &hq_intra, &sub.x, &sub.edges, &sub.gb);
            let want = tape.value(zs[s]).item();
            assert!(same(&[z], &[want]), "query {i} sub {s}: z {z} != {want}");
            pairs += 1;
        }
    }
    assert!(
        pairs > 0 && nan_elements > 0,
        "{pairs} pairs, {nan_elements} NaN elements"
    );
}
