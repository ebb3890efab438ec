//! Lock-free log₂-bucketed histograms.
//!
//! A [`Histogram`] is an array of 65 atomic bucket counters: bucket 0
//! counts the value 0, bucket `i` (1 ≤ i ≤ 64) counts values in
//! `[2^(i-1), 2^i)`. Recording is four relaxed atomic updates — bucket,
//! sum, min, max; the sample count is the bucket total, derived when a
//! snapshot is taken — cheap enough for the device read/append hot paths,
//! and quantiles are estimated from the bucket boundaries, so a reported
//! `p99` is an upper bound within a factor of two of the true value. That
//! resolution is plenty for the paper's evaluation, where interesting
//! effects (cache hit vs. optical seek) differ by orders of magnitude.

use clio_testkit::sync::atomic::{AtomicU64, Ordering};

/// Bucket 0 holds zeros; buckets 1..=64 hold `[2^(i-1), 2^i)`.
pub const BUCKETS: usize = 65;

/// A concurrent log₂-bucketed histogram of `u64` samples.
///
/// All updates use relaxed atomics: a [`Histogram::snapshot`] taken while
/// recorders are active may be off by in-flight samples (sum, min/max
/// and the buckets can each lag independently), but it never blocks, never
/// sees torn per-counter values, and its `count` always equals its own
/// bucket total.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Which bucket a value falls into.
#[must_use]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (its inclusive upper bound).
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Sum of all samples so far (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copies the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum: self.sum(),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (see [`bucket_upper_bound`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper-bound estimate of the `q`-quantile (`0 < q <= 1`): the
    /// upper bound of the bucket holding the sample of that rank, clamped
    /// to the observed `max`. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// The median estimate.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds `other`'s samples to this snapshot. The result equals (bucket
    /// for bucket) a histogram that recorded both sample sets.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl std::fmt::Display for HistSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "empty");
        }
        write!(
            f,
            "n={} min={} p50≤{} p90≤{} p99≤{} max={} mean={:.1}",
            self.count,
            self.min,
            self.p50(),
            self.p90(),
            self.p99(),
            self.max,
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..64 {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_of(hi), i);
            assert_eq!(bucket_of(hi + 1), i + 1);
        }
    }

    #[test]
    fn records_and_estimates() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1111);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // Quantiles are bucket upper bounds: within 2x above the truth.
        assert!(s.p50() >= 5 && s.p50() < 10, "p50 = {}", s.p50());
        assert_eq!(s.quantile(1.0), 1000);
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99());
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(format!("{s}"), "empty");
    }

    #[test]
    fn merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [3u64, 9, 27] {
            a.record(v);
            all.record(v);
        }
        for v in [81u64, 243, 0] {
            b.record(v);
            all.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, all.snapshot());
    }
}
