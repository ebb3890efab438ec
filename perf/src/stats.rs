//! Percentiles and the median-of-repetitions arithmetic. Kept here (not in
//! `clio-testkit`) so the way a number is reduced cannot change under the
//! benchmark.

/// Latency recorded for an op that returned `Err`: it misses any limit.
pub const FAILED_NS: u32 = u32::MAX;

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `sorted`, which must be
/// ascending; 0 for an empty slice.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Sorts latency samples in place and returns `(p50, p99, p99.9)` in ns.
pub fn latency_percentiles(samples: &mut [u32]) -> (f64, f64, f64) {
    samples.sort_unstable();
    (
        percentile(samples, 0.50),
        percentile(samples, 0.99),
        percentile(samples, 0.999),
    )
}

/// The value reported for a metric measured once per repetition: the
/// median repetition, with the range alongside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over repetitions (mean of the middle two when even).
    pub median: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
    /// Number of repetitions.
    pub n: usize,
}

/// Reduces per-repetition values; all zero for no repetitions.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            median: 0.0,
            min: 0.0,
            max: 0.0,
            n: 0,
        };
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Summary {
        median,
        min: v[0],
        max: v[n - 1],
        n,
    }
}

/// The median alone.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7u32], 0.5), 7.0);
        assert_eq!(percentile::<u32>(&[], 0.5), 0.0);
        // Tiny q still names the first sample, never index -1.
        assert_eq!(percentile(&v, 0.0001), 1.0);
    }

    #[test]
    fn failed_ops_sort_beyond_every_real_latency() {
        let mut s = vec![5, FAILED_NS, 3, 4];
        let (p50, p99, _) = latency_percentiles(&mut s);
        assert_eq!(p50, 4.0);
        assert_eq!(p99, f64::from(FAILED_NS));
    }

    #[test]
    fn median_of_repetitions() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(summarize(&[]).n, 0);
        assert_eq!(median(&[9.0]), 9.0);
        // One slow repetition does not move the median.
        assert_eq!(median(&[10.0, 10.5, 99.0]), 10.5);
    }

    #[test]
    fn helpers() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
