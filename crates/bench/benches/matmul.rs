//! Dense-vs-sparse matmul kernel comparison.
//!
//! The seed kernel skipped **every** zero scalar (`if a == 0.0 { continue }`
//! inside the inner loop), which puts an unpredictable branch on the hot
//! path of dense matmuls — the common case for GIN/attention activations.
//! The shipped kernel keeps the skip only for entirely-zero rows (one-hot
//! feature matrices genuinely contain those) and runs a branch-free
//! multiply-then-add loop otherwise — two roundings per term, never a fused
//! multiply-add: bit-identity across its SIMD tiers depends on that. Since
//! PR 17 `Tensor::matmul` *is* the shared `neursc_nn::kernels` family, so
//! the `zero_row_skip` arm times the SIMD kernel training and inference
//! both run, against the seed's scalar loop. The two are pitted against
//! each other on a dense and a 90%-sparse input to show the trade:
//!
//! * dense: per-scalar skip pays the branch on every element and loses;
//! * sparse: per-scalar skip wins on scattered zeros, but zero-row skip
//!   still captures the structured sparsity (whole zero rows) that the
//!   pipeline actually produces.
//!
//! The inference path skips finer: against a weight whose snapshot bit
//! says it is all finite, the AVX-512 kernels leave out the `k` steps at
//! which a whole four-row group is zero, without a branch in the loop
//! (`neursc_nn::kernels` module doc). `matmul_workload_shapes` times it on
//! the forward's shapes at the zero shares measured there, next to the
//! dense arm and the tape's every-step kernel on the same inputs.
//!
//! Run: `cargo bench -p neursc-bench --bench matmul`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neursc_nn::infer::{Arena, InferCtx, InferWeights, QuantMode};
use neursc_nn::{ParamId, ParamStore, Tensor};
use rand::SeedableRng;

/// The seed's kernel, kept verbatim for comparison: skips every zero
/// scalar of the left operand.
fn matmul_scalar_skip(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, k) = (a.rows(), a.cols());
    let m = b.cols();
    assert_eq!(k, b.rows());
    let mut out = Tensor::zeros(n, m);
    for i in 0..n {
        for kk in 0..k {
            let av = a.get(i, kk);
            if av == 0.0 {
                continue;
            }
            for j in 0..m {
                let v = out.get(i, j) + av * b.get(kk, j);
                out.set(i, j, v);
            }
        }
    }
    out
}

fn random_matrix(rows: usize, cols: usize, zero_frac: f64, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t = Tensor::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            if rng.gen::<f64>() >= zero_frac {
                t.set(i, j, rng.gen::<f32>() - 0.5);
            }
        }
    }
    t
}

fn bench_matmul_kernels(c: &mut Criterion) {
    let n = 128;
    let b = random_matrix(n, n, 0.0, 1);
    let cases = [
        ("dense", random_matrix(n, n, 0.0, 2)),
        ("sparse90", random_matrix(n, n, 0.9, 3)),
    ];
    let mut group = c.benchmark_group("matmul_128");
    for (label, a) in &cases {
        group.bench_with_input(BenchmarkId::new("zero_row_skip", label), a, |bch, a| {
            bch.iter(|| a.matmul(&b))
        });
        group.bench_with_input(BenchmarkId::new("scalar_skip", label), a, |bch, a| {
            bch.iter(|| matmul_scalar_skip(a, &b))
        });
    }
    group.finish();
}

/// A left operand whose full four-row groups are zero in all four rows
/// at `zero_share` of their `k` steps, and nonzero at the others — the
/// structure the step lists of the inference matmul skip.
fn group_sparse_matrix(rows: usize, cols: usize, zero_share: f64, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t = Tensor::zeros(rows, cols);
    for i0 in (0..rows).step_by(4) {
        for j in 0..cols {
            if rng.gen::<f64>() >= zero_share {
                for i in i0..(i0 + 4).min(rows) {
                    t.set(i, j, rng.gen::<f32>() + 0.5);
                }
            }
        }
    }
    t
}

/// Zero shares of the forward's left operands, per full four-row group and
/// `k` step, measured on `offline_gnn_youtube`: the `k = 64` products (the
/// first GIN layer, attention on the input features) and the post-ReLU
/// `k = 128` layers.
const ZERO_SHARES: [(usize, f64); 2] = [(64, 0.79), (128, 0.50)];

/// `a × w` through [`InferCtx::matmul`] on a weight snapshot, the way the
/// fused forward runs it; the output goes back to the arena.
fn infer_matmul(ctx: &mut InferCtx<'_>, a: &Tensor, w: ParamId) -> f32 {
    let out = ctx.matmul(a, w);
    let first = out.data()[0];
    ctx.recycle(out);
    first
}

/// The dense shapes of the GNN forward: `rows × k` activations (k = 64 or
/// 128 channels) times a `k × 128` weight. Gflop/s is `2·rows·k·128` over
/// the printed time; the mul+add peak is `2 FP ports × 16 lanes × clock`.
/// Next to the dense arm, the same shapes at the measured zero shares,
/// through the tape's `Tensor::matmul` (every step) and through
/// `InferCtx::matmul` on a snapshot weight (zero steps skipped).
fn bench_workload_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_workload_shapes");
    group.sample_size(200);
    for (k, zero_share) in ZERO_SHARES {
        let b = random_matrix(k, 128, 0.0, 5);
        let mut store = ParamStore::new();
        let w = store.alloc(b.clone());
        let weights = InferWeights::from_store(&store, QuantMode::F32);
        let mut ctx = InferCtx::new(&weights, Arena::new());
        let pct = (zero_share * 100.0).round();
        for rows in [32, 128, 512] {
            let shape = format!("{rows}x{k}x128");
            let a = random_matrix(rows, k, 0.0, 6);
            let id = BenchmarkId::new("zero_row_skip", &shape);
            group.bench_with_input(id, &a, |bch, a| bch.iter(|| a.matmul(&b)));
            let a = group_sparse_matrix(rows, k, zero_share, 7);
            let id = BenchmarkId::new(format!("tape_{pct}pct_zero"), &shape);
            group.bench_with_input(id, &a, |bch, a| bch.iter(|| a.matmul(&b)));
            let id = BenchmarkId::new(format!("infer_ctx_{pct}pct_zero"), &shape);
            group.bench_with_input(id, &a, |bch, a| bch.iter(|| infer_matmul(&mut ctx, a, w)));
        }
    }
    group.finish();
}

fn kernels_agree() {
    // Guard: the kernels must agree bit-for-bit on every input before
    // their timings mean anything.
    let b = random_matrix(64, 128, 0.0, 5);
    let mut store = ParamStore::new();
    let w = store.alloc(b.clone());
    let weights = InferWeights::from_store(&store, QuantMode::F32);
    let mut ctx = InferCtx::new(&weights, Arena::new());
    let a = group_sparse_matrix(33, 64, 0.79, 7);
    let (x, y) = (a.matmul(&b), ctx.matmul(&a, w));
    assert!(
        x.data()
            .iter()
            .zip(y.data())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "InferCtx::matmul disagrees with Tensor::matmul"
    );
    for seed in [2, 3] {
        let a = random_matrix(33, 17, if seed == 3 { 0.9 } else { 0.0 }, seed);
        let b = random_matrix(17, 21, 0.0, 4);
        let x = a.matmul(&b);
        let y = matmul_scalar_skip(&a, &b);
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                assert_eq!(x.get(i, j), y.get(i, j), "kernels disagree at ({i},{j})");
            }
        }
    }
}

fn bench_all(c: &mut Criterion) {
    kernels_agree();
    bench_matmul_kernels(c);
    bench_workload_shapes(c);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
