//! Property tests for the log₂-bucketed histogram: quantile bounds,
//! merge-equals-union, and concurrent-recorder safety. Runs on
//! `clio_testkit::prop`.

use std::sync::Arc;

use clio_obs::hist::bucket_upper_bound;
use clio_obs::Histogram;
use clio_testkit::prop::{check, u64s, vec_of};

const CASES: u32 = 128;

/// Values stay well below `u64::MAX / len` so `sum` never saturates and
/// can be compared exactly.
fn values(len: std::ops::Range<usize>) -> clio_testkit::prop::Gen<Vec<u64>> {
    vec_of(&u64s(0..1 << 40), len)
}

#[test]
fn quantiles_bound_the_true_order_statistics() {
    check(
        "quantiles_bound_the_true_order_statistics",
        CASES,
        &values(1..200),
        |vals| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            let s = h.snapshot();
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            assert_eq!(s.count, vals.len() as u64);
            assert_eq!(s.sum, vals.iter().sum::<u64>());
            assert_eq!(s.min, sorted[0]);
            assert_eq!(s.max, *sorted.last().expect("non-empty"));
            for q in [0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
                let true_q = sorted[rank - 1];
                let est = s.quantile(q);
                // The estimate is the bucket upper bound (clamped to max):
                // never below the true order statistic, never above max.
                assert!(
                    est >= true_q && est <= s.max,
                    "q={q}: true {true_q} <= est {est} <= max {} violated",
                    s.max
                );
            }
        },
    );
}

#[test]
fn bucket_upper_bounds_are_monotone_and_cover() {
    check(
        "bucket_upper_bounds_are_monotone_and_cover",
        CASES,
        &u64s(0..u64::MAX),
        |&v| {
            let h = Histogram::new();
            h.record(v);
            let s = h.snapshot();
            // The single recorded value lands in exactly one bucket whose
            // upper bound covers it (p100 == max == v after clamping).
            assert_eq!(s.quantile(1.0), v);
            // And the static bucket bounds are monotone.
            for i in 1..clio_obs::hist::BUCKETS {
                assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
            }
        },
    );
}

#[test]
fn merge_equals_recording_the_union() {
    check(
        "merge_equals_recording_the_union",
        CASES,
        &clio_testkit::prop::pair(&values(0..100), &values(0..100)),
        |(a, b)| {
            let ha = Histogram::new();
            let hb = Histogram::new();
            let hu = Histogram::new();
            for &v in a {
                ha.record(v);
                hu.record(v);
            }
            for &v in b {
                hb.record(v);
                hu.record(v);
            }
            let mut merged = ha.snapshot();
            merged.merge(&hb.snapshot());
            assert_eq!(merged, hu.snapshot(), "merge(a,b) != record(a ∪ b)");
        },
    );
}

#[test]
fn concurrent_recorders_lose_nothing() {
    check(
        "concurrent_recorders_lose_nothing",
        16, // each case spawns threads; keep the count modest
        &values(4..400),
        |vals| {
            let h = Arc::new(Histogram::new());
            let threads = 4;
            let chunk = vals.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for part in vals.chunks(chunk) {
                    let h = h.clone();
                    scope.spawn(move || {
                        for &v in part {
                            h.record(v);
                        }
                    });
                }
            });
            let s = h.snapshot();
            assert_eq!(s.count, vals.len() as u64);
            assert_eq!(s.sum, vals.iter().sum::<u64>());
            assert_eq!(s.min, *vals.iter().min().expect("non-empty"));
            assert_eq!(s.max, *vals.iter().max().expect("non-empty"));
        },
    );
}

/// A sample is counted once: `count` is the bucket total of the same
/// snapshot — after any sequence of records, and in snapshots taken while
/// recorders are still running, where it also never runs backwards.
#[test]
fn count_is_the_bucket_total_in_every_snapshot() {
    check(
        "count_is_the_bucket_total_in_every_snapshot",
        16,
        &values(4..400),
        |vals| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
                let s = h.snapshot();
                assert_eq!(s.count, s.buckets.iter().sum::<u64>());
            }
            assert_eq!(h.snapshot().count, vals.len() as u64);

            let h = Histogram::new();
            std::thread::scope(|scope| {
                for part in vals.chunks(vals.len().div_ceil(3)) {
                    let h = &h;
                    scope.spawn(move || part.iter().for_each(|&v| h.record(v)));
                }
                let mut last = 0;
                while last < vals.len() as u64 {
                    let s = h.snapshot();
                    assert_eq!(s.count, s.buckets.iter().sum::<u64>());
                    assert!(s.count >= last && s.count <= vals.len() as u64);
                    last = s.count;
                }
            });
        },
    );
}
