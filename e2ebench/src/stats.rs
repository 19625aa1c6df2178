//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank: the reported value is one that was
//! actually measured, never an interpolation. A tail percentile is only
//! trusted when at least [`MIN_BEYOND`] samples lie beyond it — p99 needs
//! ≥1,000 samples, p90 ≥100 — otherwise [`percentile`] refuses it.

/// Samples a percentile must have strictly beyond its rank before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// A reported percentile with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Nearest-rank index (0-based) of percentile `p` (0 < p ≤ 100) among `n`
/// sorted samples: the smallest rank r with r/n ≥ p/100.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(
        n > 0 && p > 0.0 && p <= 100.0,
        "percentile {p} of {n} samples"
    );
    // Integer arithmetic in hundredths of a percent, so p99 of 1000 is
    // rank 990 exactly rather than whatever 0.99 * 1000 rounds to.
    let p_hundredths = (p * 100.0).round() as usize;
    let rank = (p_hundredths * n).div_ceil(10_000);
    rank.max(1) - 1
}

/// Nearest-rank percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (or there are none).
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = nearest_rank(p, sorted.len());
    if sorted.len() - 1 - idx < MIN_BEYOND && p < 100.0 {
        return None;
    }
    Some(Percentile {
        value: sorted[idx],
        n: sorted.len(),
    })
}

/// The median (nearest-rank p50 without the tail gate — the middle of a
/// handful of repeated set-up timings is always meaningful).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(50.0, sorted.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(nearest_rank(50.0, 1), 0);
        assert_eq!(nearest_rank(50.0, 4), 1);
        assert_eq!(nearest_rank(50.0, 5), 2);
        assert_eq!(nearest_rank(99.0, 1000), 989);
        assert_eq!(nearest_rank(99.0, 1001), 990);
        assert_eq!(nearest_rank(90.0, 100), 89);
        assert_eq!(nearest_rank(100.0, 7), 6);
    }

    #[test]
    fn percentile_is_a_measured_value() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&samples, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.n, 1000);
        assert_eq!(percentile(&samples, 50.0).unwrap().value, 500.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        // Rank 989 leaves exactly 10 samples beyond it.
        assert!(percentile(&samples, 99.0).is_some());
        assert!(percentile(&samples[..999], 99.0).is_none());
        assert!(percentile(&samples[..100], 90.0).is_some());
        assert!(percentile(&samples[..99], 90.0).is_none());
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 1.0);
    }
}
