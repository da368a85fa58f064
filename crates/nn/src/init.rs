//! Weight initialization.

use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Xavier/Glorot uniform initialization: `U(−a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))` — the standard choice for the
/// tanh/sigmoid-free MLPs and GNN layers used here.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let a = (6.0 / (rows + cols).max(1) as f64).sqrt() as f32;
    let data = (0..rows * cols).map(|_| rng.gen_range(-a..=a)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Uniform initialization in `[lo, hi]` (used for the clamped Wasserstein
/// discriminator whose weights live in `[-0.01, 0.01]`).
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..=hi)).collect();
    Tensor::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds_and_determinism() {
        let mut r1 = StdRng::seed_from_u64(1);
        let t1 = xavier_uniform(10, 20, &mut r1);
        let bound = (6.0f32 / 30.0).sqrt() + 1e-6;
        assert!(t1.data().iter().all(|&x| x.abs() <= bound));
        let mut r2 = StdRng::seed_from_u64(1);
        let t2 = xavier_uniform(10, 20, &mut r2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn xavier_is_not_constant() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = xavier_uniform(8, 8, &mut rng);
        let first = t.data()[0];
        assert!(t.data().iter().any(|&x| (x - first).abs() > 1e-9));
    }

    #[test]
    fn uniform_respects_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = uniform(5, 5, -0.01, 0.01, &mut rng);
        assert!(t.data().iter().all(|&x| (-0.01..=0.01).contains(&x)));
    }
}
