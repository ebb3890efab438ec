//! A wall-clock micro-benchmark timer (replaces the external
//! benchmark harness the workspace once used).
//!
//! No statistics engine, no HTML reports — just the part a reproduction
//! needs: warm the code path up, take a fixed number of fixed-duration
//! samples, and report the median (with min/mean for context). Medians
//! over per-sample means are robust against scheduler noise, which is the
//! dominant error source for in-memory micro-benchmarks like ours.
//!
//! Every run samples the same way: a 200 ms warm-up, then 20 samples of
//! 50 ms each.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark's result, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Sampled {
    /// Benchmark name.
    pub name: String,
    /// Median of the per-sample mean iteration times.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Mean across samples.
    pub mean_ns: f64,
    /// Iterations timed per sample.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
}

/// The timing harness: holds the sampling configuration and prints one
/// report line per benchmark.
pub struct Bench {
    samples: usize,
    sample_time: Duration,
    warmup: Duration,
    results: Vec<Sampled>,
}

impl Default for Bench {
    fn default() -> Bench {
        Bench::new()
    }
}

impl Bench {
    /// A harness with the standard sampling: 200 ms of warm-up, then 20
    /// samples of 50 ms.
    #[must_use]
    pub fn new() -> Bench {
        Bench {
            samples: 20,
            sample_time: Duration::from_millis(50),
            warmup: Duration::from_millis(200),
            results: Vec::new(),
        }
    }

    /// Times `f`, prints a report line, and records the result.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        // Warmup: run for the configured duration while estimating the
        // per-iteration cost, so each sample times a sensible batch.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            black_box(f());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warmup && warm_iters >= 5 {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters_per_sample = ((self.sample_time.as_secs_f64() / per_iter) as u64).max(1);

        let mut sample_ns: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters_per_sample {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters_per_sample as f64
            })
            .collect();
        sample_ns.sort_by(|a, b| a.total_cmp(b));
        let median_ns = if sample_ns.len() % 2 == 1 {
            sample_ns[sample_ns.len() / 2]
        } else {
            (sample_ns[sample_ns.len() / 2 - 1] + sample_ns[sample_ns.len() / 2]) / 2.0
        };
        let result = Sampled {
            name: name.to_owned(),
            median_ns,
            min_ns: sample_ns[0],
            mean_ns: sample_ns.iter().sum::<f64>() / sample_ns.len() as f64,
            iters_per_sample,
            samples: sample_ns.len(),
        };
        println!(
            "bench {name:<32} median {:>10}/iter   (min {}, mean {}, {} samples x {} iters)",
            fmt_ns(result.median_ns),
            fmt_ns(result.min_ns),
            fmt_ns(result.mean_ns),
            result.samples,
            result.iters_per_sample,
        );
        self.results.push(result);
    }

    /// All results recorded so far, in run order.
    #[must_use]
    pub fn results(&self) -> &[Sampled] {
        &self.results
    }
}

/// Times the kit's instrumented atomics and mutex beside the std types
/// they wrap (`sync/*_kit` and `sync/*_std` rows). Outside a checked run
/// each hook is one relaxed load and a branch, so each pair should time
/// alike.
pub fn sync_hooks(c: &mut Bench) {
    use std::sync::atomic::Ordering;
    let (kit, bare) = (
        crate::sync::atomic::AtomicU64::new(0),
        std::sync::atomic::AtomicU64::new(0),
    );
    c.bench("sync/atomic_load_kit", || {
        black_box(&kit).load(Ordering::Acquire)
    });
    c.bench("sync/atomic_load_std", || {
        black_box(&bare).load(Ordering::Acquire)
    });
    c.bench("sync/atomic_store_kit", || {
        black_box(&kit).store(1, Ordering::Release)
    });
    c.bench("sync/atomic_store_std", || {
        black_box(&bare).store(1, Ordering::Release)
    });
    c.bench("sync/atomic_fetch_add_kit", || {
        black_box(&kit).fetch_add(1, Ordering::AcqRel)
    });
    c.bench("sync/atomic_fetch_add_std", || {
        black_box(&bare).fetch_add(1, Ordering::AcqRel)
    });
    let (kit, bare) = (crate::sync::Mutex::new(0u64), std::sync::Mutex::new(0u64));
    c.bench("sync/mutex_lock_unlock_kit", || {
        *black_box(&kit).lock() += 1
    });
    c.bench("sync/mutex_lock_unlock_std", || {
        *black_box(&bare)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
    });
}

/// Formats nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
#[must_use]
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_formatting() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.50 s");
    }

    #[test]
    fn bench_records_plausible_timings() {
        let mut b = Bench {
            samples: 5,
            sample_time: Duration::from_millis(2),
            warmup: Duration::from_millis(2),
            results: Vec::new(),
        };
        b.bench("selftest/sum", || (0..100u64).sum::<u64>());
        let r = &b.results()[0];
        assert_eq!(r.samples, 5);
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
    }
}
