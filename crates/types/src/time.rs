//! Timestamps.
//!
//! Clio tags log entries with the time at which the service received them
//! (§2.1). A timestamp both uniquely identifies an entry written
//! synchronously and supports locating entries "at a given earlier point in
//! time". We use microseconds since an arbitrary epoch; benches drive this
//! from a virtual clock so runs are deterministic.

use std::fmt;
use std::ops::{Add, Sub};

/// A point in time, in microseconds since an arbitrary epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp (the epoch).
    pub const ZERO: Timestamp = Timestamp(0);
    /// The greatest representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Builds a timestamp from whole microseconds.
    #[must_use]
    pub fn from_micros(us: u64) -> Timestamp {
        Timestamp(us)
    }

    /// Builds a timestamp from whole milliseconds.
    #[must_use]
    pub fn from_millis(ms: u64) -> Timestamp {
        Timestamp(ms * 1_000)
    }

    /// Builds a timestamp from whole seconds.
    #[must_use]
    pub fn from_secs(s: u64) -> Timestamp {
        Timestamp(s * 1_000_000)
    }

    /// The timestamp as microseconds since the epoch.
    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating addition of a duration in microseconds.
    #[must_use]
    pub fn saturating_add_micros(self, us: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(us))
    }

    /// The absolute difference between two timestamps, in microseconds.
    #[must_use]
    pub fn abs_diff(self, other: Timestamp) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;

    fn add(self, us: u64) -> Timestamp {
        Timestamp(self.0 + us)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = u64;

    fn sub(self, rhs: Timestamp) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0 / 1_000_000;
        let us = self.0 % 1_000_000;
        write!(f, "{s}.{us:06}s")
    }
}

/// A source of timestamps for the log service.
///
/// The service stamps every received entry (§2.1); tests and benchmarks
/// drive a deterministic clock, deployments use [`SystemClock`].
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> Timestamp;
}

/// Wall-clock time (microseconds since the Unix epoch).
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        let us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Timestamp(us)
    }
}

/// The workspace's one virtual clock, in microseconds: the service's
/// semantic clock in tests, the modelled time a latency device charges,
/// and the time a simulation's scheduler advances. Every call to
/// [`Clock::now`] returns a strictly increasing timestamp (the current
/// time, then one tick), so timestamps stay unique; [`ManualClock::now_us`]
/// reads without ticking.
#[derive(Debug, Default)]
pub struct ManualClock {
    next: std::sync::atomic::AtomicU64,
}

impl ManualClock {
    /// A clock starting at `base`.
    #[must_use]
    pub fn starting_at(base: Timestamp) -> ManualClock {
        ManualClock {
            next: std::sync::atomic::AtomicU64::new(base.0),
        }
    }

    /// The current time in microseconds, without ticking.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.next.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Jumps the clock forward by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.next
            .fetch_add(us, std::sync::atomic::Ordering::Relaxed);
    }

    /// Moves the clock to at least `us` (never backwards).
    pub fn advance_to(&self, us: u64) {
        self.next
            .fetch_max(us, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Timestamp::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(Timestamp::from_millis(5).as_micros(), 5_000);
        assert_eq!(Timestamp::from_micros(7).as_micros(), 7);
    }

    #[test]
    fn ordering_follows_time() {
        assert!(Timestamp::from_secs(1) < Timestamp::from_secs(2));
        assert!(Timestamp::ZERO < Timestamp::MAX);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(1) + 500;
        assert_eq!(t.as_micros(), 1_000_500);
        assert_eq!(t - Timestamp::from_secs(1), 500);
        assert_eq!(Timestamp::MAX.saturating_add_micros(10), Timestamp::MAX);
        assert_eq!(Timestamp(5).abs_diff(Timestamp(9)), 4);
        assert_eq!(Timestamp(9).abs_diff(Timestamp(5)), 4);
    }

    #[test]
    fn display_is_seconds_with_fraction() {
        assert_eq!(Timestamp(1_500_000).to_string(), "1.500000s");
    }

    #[test]
    fn manual_clock_is_strictly_increasing() {
        let c = ManualClock::starting_at(Timestamp(100));
        let a = c.now();
        let b = c.now();
        assert!(b > a);
        assert_eq!((a, b), (Timestamp(100), Timestamp(101)));
        assert_eq!(c.now_us(), 102, "now_us reads without ticking");
        assert_eq!(c.now_us(), 102);
        c.advance(50);
        assert!(c.now() >= Timestamp(152));
        // Charged time reads back.
        let t0 = c.now_us();
        c.advance(500);
        assert!(c.now() >= Timestamp(t0 + 500));
        assert!(c.now_us() - t0 >= 500);
        // advance_to moves forward only; ticks stay unique past it.
        c.advance_to(1_000);
        let t1 = c.now();
        let t2 = c.now();
        assert!(t1 >= Timestamp(1_000) && t2 > t1);
        c.advance_to(10);
        assert!(c.now_us() > 1_000, "advance_to never goes backwards");
    }

    #[test]
    fn system_clock_moves_forward() {
        let c = SystemClock;
        assert!(c.now() > Timestamp::ZERO);
    }
}
