//! Order statistics the benchmark reports: the median of the repetitions
//! of a timed phase, and for latency samples the highest percentile that
//! still has at least ten samples beyond it.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller times at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest of `values`: the fastest of a set of timings.
pub fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile of an ascending-sorted slice, the percentile
/// given in basis points (5000 = the median) so that ranks are exact.
pub fn percentile_sorted(sorted: &[f64], basis_points: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), basis_points) - 1]
}

/// 1-based nearest rank of a percentile among `samples` samples.
fn rank(samples: usize, basis_points: u64) -> usize {
    let r = (samples as u64 * basis_points).div_ceil(10_000) as usize;
    r.clamp(1, samples)
}

/// The percentiles a tail is reported at, in basis points, lowest first.
const TAIL_LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest percentile of [`TAIL_LADDER`], in basis points, that leaves
/// at least ten of `samples` beyond it, so the reported tail never rests on
/// a handful of outliers. Fewer than a hundred samples support nothing above
/// the median, and the median is what is returned.
pub fn tail_percentile(samples: usize) -> u64 {
    TAIL_LADDER
        .into_iter()
        .filter(|bp| samples > 0 && samples - rank(samples, *bp) >= 10)
        .fold(5_000, u64::max)
}

/// `(percentile, value)` of the tail of `samples` by the rule of
/// [`tail_percentile`], the percentile in percent for printing.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let bp = tail_percentile(v.len());
    (bp as f64 / 100.0, percentile_sorted(&v, bp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 5_000);
        assert_eq!(tail_percentile(99), 5_000);
        assert_eq!(tail_percentile(100), 9_000);
        assert_eq!(tail_percentile(999), 9_000);
        assert_eq!(tail_percentile(1_000), 9_900);
        assert_eq!(tail_percentile(4_000), 9_900);
        assert_eq!(tail_percentile(10_000), 9_990);
        assert_eq!(tail_percentile(100_000), 9_999);
    }

    #[test]
    fn tail_value_is_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), (99.0, 990.0));
        let few: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&few), (50.0, 5.0));
    }
}
