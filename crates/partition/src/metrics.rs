//! Cross-model partition quality metrics.

/// Load imbalance of a per-partition count vector: `max / mean`. 1.0 is
/// perfectly balanced; traditional partitioners constrain this, while the
/// paper argues balance alone doesn't imply geo-distributed performance.
pub fn imbalance(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / counts.len() as f64;
    let max = *counts.iter().max().unwrap() as f64;
    max / mean
}

/// Normalizes a series to its first element (how the paper reports most
/// results, e.g. "normalized to RandPG" in Fig 10).
///
/// A zero first element makes "normalized to the baseline" meaningless, so
/// every entry comes back `NaN` rather than silently returning the raw
/// series (which would mislabel a Fig-10-style report). Callers that plot
/// or tabulate should assert the result is finite.
pub fn normalize_to_first(series: &[f64]) -> Vec<f64> {
    let Some(&first) = series.first() else {
        return Vec::new();
    };
    if first == 0.0 {
        return vec![f64::NAN; series.len()];
    }
    series.iter().map(|x| x / first).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_balanced() {
        assert!((imbalance(&[10, 10, 10]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_skewed() {
        assert!((imbalance(&[30, 0, 0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_degenerate() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }

    #[test]
    fn normalize() {
        assert_eq!(normalize_to_first(&[2.0, 4.0, 1.0]), vec![1.0, 2.0, 0.5]);
        assert!(normalize_to_first(&[]).is_empty());
    }

    #[test]
    fn normalize_zero_baseline_is_nan() {
        let out = normalize_to_first(&[0.0, 4.0, 1.0]);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|x| x.is_nan()), "zero baseline must not pass through: {out:?}");
    }
}
