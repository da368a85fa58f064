//! Order statistics for the benchmark: the best pass of every piece of
//! work, percentiles across ops, quartile spread across runs.
//!
//! Every timing the benchmark reports goes through two steps: first the
//! *pass minimum* of each piece of work (op `i`'s wall time in every
//! measured pass → one number `l[i]`; likewise the wall and CPU time of
//! every chunk of the throughput window), then a percentile over the
//! `l[i]` or a sum over the chunks.
//!
//! Why the minimum and not the median across passes: every pass repeats
//! the same deterministic work, so passes differ only by interference, and
//! interference on a shared host only ever adds time. It also comes in
//! episodes that outlast several passes: with the pass median, ten
//! identical 20 s runs of `offline_gnn_youtube` spread their throughput by
//! an inter-quartile range of 11%; with the pass minimum of whole passes by
//! 6%; with the pass minimum of every op on its own by 0.5 to 6% (a whole
//! pass is rarely free of interference, a single op usually is in one pass
//! out of fifteen). The median across *ops* (`lat_p50_ms`) is untouched:
//! ops really are different from each other.

/// Median of `values` (mean of the two middle elements for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Per-op minimum across passes: `passes[p][i]` is op `i`'s sample in
/// pass `p`; the result has one entry per op. Panics if passes differ in
/// length (every pass executes the same fixed op list — anything else is a
/// harness bug).
pub fn pass_min(passes: &[Vec<f64>]) -> Vec<f64> {
    let n_ops = passes.first().map_or(0, Vec::len);
    assert!(
        passes.iter().all(|p| p.len() == n_ops),
        "passes must all cover the same op list"
    );
    (0..n_ops)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Smallest of `values`; `None` for an empty slice.
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Fewest samples that must lie strictly beyond a reported quantile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0 < q < 1`, linear interpolation between closest
/// ranks) of `values` — or `None` when fewer than [`MIN_TAIL_SAMPLES`]
/// samples lie beyond it on the short side, because such a quantile is an
/// anecdote about a handful of ops, not a statistic.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must be inside (0, 1)");
    let n = values.len();
    let beyond = ((n as f64) * q.min(1.0 - q)).floor() as usize;
    if beyond < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(interpolate(&v, q))
}

/// Linear interpolation at rank `q·(n−1)` of an already sorted slice.
fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First quartile, median and third quartile with the *exclusive* method —
/// the same numbers Python's `statistics.quantiles(values, n=4)` returns,
/// so a spread computed here can be checked against one computed there.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped like CPython does.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([at(1), at(2), at(3)])
}

/// Inter-quartile range as a share of the median: the run-to-run spread the
/// benchmark's bounds are judged against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn pass_min_drops_every_stall() {
        // Op 0 stalls in pass 1, op 1 stalls in passes 1 and 2: a raw
        // percentile over all 6 samples would report a stall as the tail,
        // and the pass median would keep op 1's.
        let passes = vec![vec![1.0, 10.0], vec![50.0, 70.5], vec![1.1, 70.0]];
        assert_eq!(pass_min(&passes), vec![1.0, 10.0]);
        assert_eq!(min(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(min(&[]), None);
    }

    #[test]
    #[should_panic(expected = "same op list")]
    fn pass_min_rejects_ragged_passes() {
        pass_min(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        // 99 samples: 9 lie beyond p90 → refused; p50 is fine.
        assert_eq!(percentile(&v, 0.9), None);
        assert_eq!(percentile(&v, 0.5), Some(49.0));
        // 128 samples (the smallest op list): 12 beyond p90 → reported,
        // but p99 (1 beyond) is not.
        let v: Vec<f64> = (0..128).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_some());
        assert_eq!(percentile(&v, 0.99), None);
        // Symmetric on the low side.
        assert_eq!(percentile(&v, 0.01), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.25), Some(25.0));
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let p = percentile(&v, 0.9).unwrap();
        assert!((p - 179.1).abs() < 1e-9, "{p}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0]), Some([2.0, 7.0, 10.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&v), Some(1.0));
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }
}
