//! Small order statistics shared by the timed and traced runs.
//!
//! Every function returns `None` where its input gives no answer (no
//! samples, a zero denominator) so callers report "not applicable" rather
//! than a made-up 0 or NaN.

/// Nearest-rank percentile (`p` in `[0, 100]`) of `samples`, the method
/// `aqf_stats::Summary::percentile` uses.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or a sample is NaN.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// `num / den`, or `None` when the denominator is zero.
pub fn frac(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn zero_denominator_is_not_applicable() {
        assert_eq!(frac(0, 0), None);
        assert_eq!(frac(3, 0), None);
        assert_eq!(frac(0, 4), Some(0.0));
        assert_eq!(frac(1, 4), Some(0.25));
    }
}
