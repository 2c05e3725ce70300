//! Order statistics for latency and wall-time samples.

/// Percentiles the tail helper may report, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// The highest tail percentile a sample set supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples the set held.
    pub samples: usize,
}

/// Nearest-rank percentile (`p` in 0..=100) of sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile `p` of sorted samples, smoothed: the mean of the samples
/// whose ranks lie within half a per cent of the sample count of its
/// nearest rank. Integer-nanosecond latencies then keep their spread in
/// the digits instead of snapping to one value.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn band_percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
    let half = n / 200;
    let band = &sorted[rank.saturating_sub(half)..(rank + half + 1).min(n)];
    band.iter().sum::<f64>() / band.len() as f64
}

/// The highest percentile of [`LADDER`], up to `at_most`, with at least
/// [`TAIL_SUPPORT`] samples strictly above its rank, or `None` when even
/// the median lacks that support.
pub fn tail(samples: &[f64], at_most: f64) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    LADDER
        .iter()
        .rev()
        .filter(|&&p| p <= at_most)
        .find(|&&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n >= rank + TAIL_SUPPORT && rank >= 1
        })
        .map(|&p| Tail {
            percentile: p,
            value: percentile_sorted(&sorted, p),
            samples: n,
        })
}

/// Median by linear interpolation between the middle order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 100.0).expect("1000 samples support p99");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // One sample fewer leaves only nine beyond p99: p90 is reported.
        let t = tail(&xs[..999], 100.0).expect("999 samples support p90");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 999);

        // A simulated-fault set of 204: p99 has two beyond it, p90 twenty.
        let t = tail(&xs[..204], 99.0).expect("204 samples support p90");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 204);
    }

    #[test]
    fn tail_of_a_large_set_climbs_the_ladder_up_to_its_ceiling() {
        let xs: Vec<f64> = (0..100_000).map(f64::from).collect();
        let t = tail(&xs, 100.0).expect("support");
        assert_eq!(t.percentile, 99.99);
        assert!(xs.iter().filter(|&&x| x > t.value).count() >= TAIL_SUPPORT);
        assert_eq!(tail(&xs, 99.0).map(|t| t.percentile), Some(99.0));
    }

    #[test]
    fn tail_needs_support_for_the_median() {
        assert_eq!(tail(&[], 100.0), None);
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&xs, 100.0), None);
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&xs, 100.0).map(|t| t.percentile), Some(50.0));
    }

    #[test]
    fn band_percentile_averages_around_the_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Ranks 985..=995 around p99's nearest rank 990.
        assert_eq!(band_percentile(&xs, 99.0), 990.0);
        let ints: Vec<f64> = [500.0; 500].iter().chain(&[501.0; 500]).copied().collect();
        let p50 = band_percentile(&ints, 50.0);
        assert!(p50 > 500.0 && p50 < 501.0, "{p50}");
        // Too few samples for a band: the nearest rank itself.
        assert_eq!(band_percentile(&xs[..10], 99.0), 10.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), 50.0);
        assert_eq!(percentile_sorted(&xs, 99.0), 99.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 100.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
    }
}
