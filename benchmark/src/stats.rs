//! Order statistics over raw samples.
//!
//! Latencies are kept as raw samples (not log2 buckets, whose quantiles
//! jump 2x) and a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder, as (label, fraction).
const LADDER: [(&str, f64); 6] =
    [("p50", 0.50), ("p75", 0.75), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)];

pub const P95: (&str, f64) = LADDER[3];
pub const P99: (&str, f64) = LADDER[4];
pub const P999: (&str, f64) = LADDER[5];

/// Number of samples strictly beyond quantile `q` of `n` samples under
/// the nearest-rank definition used by [`quantile`].
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q) - 1
}

/// Zero-based nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    debug_assert!(n > 0 && (0.0..=1.0).contains(&q));
    // The epsilon keeps 200 * 0.95 = 190.00000000000003 from rounding up.
    (((n as f64) * q - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// The highest percentile of the ladder that `n` samples support: at
/// least [`MIN_BEYOND`] samples beyond it. `None` below 20 samples,
/// where not even the median qualifies.
pub fn highest_supported(n: usize) -> Option<(&'static str, f64)> {
    LADDER.iter().rev().find(|&&(_, q)| n > 0 && beyond(n, q) >= MIN_BEYOND).copied()
}

/// The percentile to report under a metric name that says `named` (as in
/// `window_p95_ms`) from `n` samples: that percentile when they support
/// it, otherwise the highest one they do support, and the median when
/// they support none.
pub fn tail_quantile(n: usize, named: (&'static str, f64)) -> (&'static str, f64) {
    match highest_supported(n) {
        Some(supported) if supported.1 < named.1 => supported,
        Some(_) => named,
        None => LADDER[0],
    }
}

/// Nearest-rank quantile of an ascending-sorted slice.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[rank(sorted.len(), q)]
}

/// [`quantile`] as a float, zero for no samples, so a layer that did not
/// run reports zero.
pub fn quantile_or_zero<T: Copy + Into<u64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        quantile(sorted, q).into() as f64
    }
}

/// Median of unsorted values (mean of the middle two for even counts).
/// Zero for an empty slice, so a layer that did not run reports zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_follows_the_ten_beyond_rule() {
        assert_eq!(highest_supported(200).map(|p| p.0), Some("p95"));
        assert_eq!(highest_supported(199).map(|p| p.0), Some("p90"));
        assert_eq!(highest_supported(40).map(|p| p.0), Some("p75"));
        assert_eq!(highest_supported(1_000).map(|p| p.0), Some("p99"));
        assert_eq!(highest_supported(50_000).map(|p| p.0), Some("p999"));
        assert_eq!(highest_supported(21).map(|p| p.0), Some("p50"));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn tail_falls_back_to_what_the_samples_support() {
        assert_eq!(tail_quantile(200, P95), P95);
        assert_eq!(tail_quantile(200, P999), P95);
        assert_eq!(tail_quantile(40, P95), ("p75", 0.75));
        assert_eq!(tail_quantile(100_000, P99), P99);
        assert_eq!(tail_quantile(10, P95), ("p50", 0.50));
        assert_eq!(tail_quantile(0, P95), ("p50", 0.50));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u32> = (1..=200).collect();
        assert_eq!(quantile(&v, 0.95), 190);
        assert_eq!(quantile(&v, 0.50), 100);
        assert_eq!(quantile(&v, 1.0), 200);
        assert_eq!(quantile(&[7u32], 0.99), 7);
        // Exactly MIN_BEYOND samples lie beyond the p95 of 200.
        assert_eq!(v.iter().filter(|&&x| x > quantile(&v, 0.95)).count(), MIN_BEYOND);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
