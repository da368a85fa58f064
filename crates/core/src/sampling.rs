//! The efficiency/accuracy trade-off of §5.8: estimate on a uniform sample
//! of the candidate substructures and rescale.
//!
//! With `|G'_sub| = ⌈r_s · |G_sub|⌉` substructures drawn uniformly without
//! replacement, each substructure is included with probability
//! `|G'_sub| / |G_sub|`, so dividing the sampled sum by that inclusion
//! probability gives an unbiased estimator of `Σ_i ĉ_i(q)` (Eq. 12).

use crate::model::NeurSc;
use crate::obs;
use crate::train::PreparedQuery;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Chooses which substructure indices to evaluate at rate `r_s`.
///
/// Returns all indices when `r_s ≥ 1` or there is ≤ 1 substructure.
fn sample_indices(n_subs: usize, r_s: f64, rng: &mut StdRng) -> Vec<usize> {
    if n_subs == 0 {
        return Vec::new();
    }
    if r_s >= 1.0 || n_subs == 1 {
        return (0..n_subs).collect();
    }
    let r = r_s.max(f64::EPSILON);
    let k = ((r * n_subs as f64).ceil() as usize).clamp(1, n_subs);
    let mut idx: Vec<usize> = (0..n_subs).collect();
    idx.shuffle(rng);
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Runs WEst's fused forward on the sampled substructures only and rescales
/// (Eq. 12); at `r_s ≥ 1` it is [`NeurSc::estimate_prepared`] bit for bit.
pub fn estimate_with_sample_rate(
    model: &NeurSc,
    pq: &PreparedQuery,
    r_s: f64,
    rng: &mut StdRng,
) -> f64 {
    if pq.trivially_zero || pq.subs.is_empty() {
        return 0.0;
    }
    let chosen = sample_indices(pq.subs.len(), r_s, rng);
    let scale = pq.subs.len() as f64 / chosen.len() as f64;
    let (sum, _) = model.forward_subs(pq, &chosen, model.config.threads, obs::noop(), false);
    sum * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn full_rate_keeps_everything() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_indices(5, 1.0, &mut rng), vec![0, 1, 2, 3, 4]);
        assert_eq!(sample_indices(5, 2.0, &mut rng), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_size_is_ceiling_of_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_indices(10, 0.3, &mut rng).len(), 3);
        assert_eq!(sample_indices(10, 0.25, &mut rng).len(), 3); // ⌈2.5⌉
        assert_eq!(sample_indices(10, 0.01, &mut rng).len(), 1); // at least 1
        assert_eq!(sample_indices(0, 0.5, &mut rng).len(), 0);
    }

    #[test]
    fn indices_are_valid_and_unique() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let idx = sample_indices(12, 0.4, &mut rng);
            let mut d = idx.clone();
            d.dedup();
            assert_eq!(d, idx);
            assert!(idx.iter().all(|&i| i < 12));
        }
    }

    #[test]
    fn inclusion_probability_is_uniform() {
        // Empirically: over many draws each index is chosen ≈ k/n of the time,
        // which is exactly what makes Eq. 12 unbiased.
        let mut rng = StdRng::seed_from_u64(3);
        let (n, r) = (8usize, 0.5);
        let trials = 4000;
        let mut hits = vec![0usize; n];
        for _ in 0..trials {
            for i in sample_indices(n, r, &mut rng) {
                hits[i] += 1;
            }
        }
        let expected = trials as f64 * 4.0 / 8.0;
        for (i, &h) in hits.iter().enumerate() {
            let dev = (h as f64 - expected).abs() / expected;
            assert!(dev < 0.1, "index {i} inclusion skewed: {h} vs {expected}");
        }
    }

    #[test]
    fn single_substructure_never_downsampled() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(sample_indices(1, 0.1, &mut rng), vec![0]);
    }
}
