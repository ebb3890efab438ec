//! The workspace's single source of host wall-clock readings.
//!
//! Determinism policy (see DESIGN.md "Static analysis & lockdep"): test
//! schedules and recovery results must be replayable, so product code
//! never reads the host clock directly — the `no-wallclock` rule in
//! `clio-lint` rejects `Instant::now()`/`SystemTime::now()` outside the
//! approved timing modules, and inside `clio-obs` outside this file.
//! Latency measurement is observability, so it funnels through one
//! function here, [`read`]. Semantic time (timestamps stored in log
//! entries) is a different thing entirely and comes from
//! `clio_types::time::Clock`, which tests replace with a logical clock.
//!
//! A [`Reading`] is taken once per phase boundary and serves everything
//! that boundary needs: the span that closes there, the span that opens
//! there, and the latency histogram of the operation it ends (the host
//! duration between two readings).
//!
//! Span timestamps additionally support **virtual time**: the
//! whole-system simulator runs every client on one thread against a
//! seeded virtual clock, and span trees recorded during a simulated run
//! must be a pure function of the seed. [`install_virtual_us`] makes the
//! span microseconds of every reading on the current thread (and only
//! that thread) come from a virtual source until the returned guard
//! drops, so a simulation's spans carry virtual microseconds while
//! concurrent real-time tests are unaffected. The host instant, and so
//! every latency histogram, stays host time.
//!
//! The other direction — spending host time — also has one function
//! here, [`hold`], the workspace's one sanctioned sleep (`no-wallclock`
//! flags `thread::sleep` elsewhere): a latency device paced by the host
//! clock holds its caller through it.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One clock reading: the host instant, for latencies, and the span
/// microseconds, for trace timestamps (virtual under
/// [`install_virtual_us`], else host µs since the process epoch).
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    host: Instant,
    us: u64,
}

impl Reading {
    /// The span timestamp of this reading, µs.
    #[must_use]
    pub fn us(&self) -> u64 {
        self.us
    }

    /// Host time from `earlier` to this reading (zero if `earlier` is
    /// later).
    #[must_use]
    pub fn since(&self, earlier: Reading) -> Duration {
        self.host.saturating_duration_since(earlier.host)
    }
}

/// The process epoch host span microseconds count from (first use wins;
/// only differences are meaningful).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Stack of thread-local virtual-time sources; the innermost override
    /// wins. A stack (rather than a slot) lets nested scopes restore the
    /// outer source on drop.
    static VIRTUAL_US: RefCell<Vec<Arc<dyn Fn() -> u64>>> = const { RefCell::new(Vec::new()) };
}

/// Reads the clock: one host read, plus one call of the current thread's
/// virtual source when one is installed.
#[must_use]
pub fn read() -> Reading {
    let host = Instant::now();
    let virtual_us = VIRTUAL_US.with(|s| s.borrow().last().map(|f| f()));
    let us = virtual_us.unwrap_or_else(|| {
        u64::try_from(host.saturating_duration_since(epoch()).as_micros()).unwrap_or(u64::MAX)
    });
    Reading { host, us }
}

/// Uninstalls its virtual-time source when dropped.
pub struct VirtualClockGuard {
    _private: (),
}

impl Drop for VirtualClockGuard {
    fn drop(&mut self) {
        VIRTUAL_US.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Makes the span microseconds of [`read`] on the *current thread* come
/// from `source` until the returned guard drops. Used by the
/// deterministic simulator so spans recorded during a simulated run
/// carry virtual microseconds.
#[must_use]
pub fn install_virtual_us(source: Arc<dyn Fn() -> u64>) -> VirtualClockGuard {
    VIRTUAL_US.with(|s| s.borrow_mut().push(source));
    VirtualClockGuard { _private: () }
}

/// Holds the calling thread for `us` microseconds of host time.
pub fn hold(us: u64) {
    std::thread::sleep(Duration::from_micros(us));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn host_time_is_monotonic_nondecreasing() {
        let a = read();
        let b = read();
        assert!(b.us() >= a.us());
        assert!(a.since(b) == Duration::ZERO, "since saturates");
    }

    #[test]
    fn virtual_override_is_thread_local_and_nests() {
        let tick = Arc::new(AtomicU64::new(500));
        let t2 = tick.clone();
        let g = install_virtual_us(Arc::new(move || t2.load(Ordering::Relaxed)));
        assert_eq!(read().us(), 500);
        tick.store(900, Ordering::Relaxed);
        assert_eq!(read().us(), 900);
        {
            let _inner = install_virtual_us(Arc::new(|| 7));
            assert_eq!(read().us(), 7);
        }
        assert_eq!(read().us(), 900, "outer source restored after inner drop");
        // Another thread's override is independent of this thread's.
        std::thread::spawn(|| {
            let _g = install_virtual_us(Arc::new(|| 123));
            assert_eq!(read().us(), 123);
        })
        .join()
        .expect("probe thread");
        assert_eq!(read().us(), 900, "peer thread override must not leak here");
        drop(g);
    }

    #[test]
    fn host_durations_ignore_the_virtual_source() {
        let _g = install_virtual_us(Arc::new(|| 42));
        let a = read();
        hold(2_000);
        let b = read();
        assert_eq!((a.us(), b.us()), (42, 42));
        assert!(b.since(a) >= Duration::from_millis(2));
    }
}
