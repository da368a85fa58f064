//! Dense-vs-sparse matmul kernel comparison (ISSUE 1 satellite).
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

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neursc_nn::Tensor;
use rand::Rng;
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

/// The dense shapes of the GNN forward: `rows × k` activations (k = 64 or
/// 128 channels) times a `k × 128` weight. Gflop/s is `2·rows·k·128` over
/// the printed time; the mul+add peak is `2 FP ports × 16 lanes × clock`.
fn bench_workload_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_workload_shapes");
    group.sample_size(200);
    for k in [64, 128] {
        let b = random_matrix(k, 128, 0.0, 5);
        for rows in [32, 128, 512] {
            let a = random_matrix(rows, k, 0.0, 6);
            let id = BenchmarkId::new("zero_row_skip", format!("{rows}x{k}x128"));
            group.bench_with_input(id, &a, |bch, a| bch.iter(|| a.matmul(&b)));
        }
    }
    group.finish();
}

fn kernels_agree() {
    // Guard: the two kernels must agree bit-for-bit on both shapes before
    // their timings mean anything.
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
