//! Vector clocks for the happens-before race detector in
//! [`crate::check`].
//!
//! A [`VClock`] maps model-thread ids (small dense integers assigned by
//! the checker) to event counters. The checker keeps one clock per model
//! thread and one per synchronization object (lock, atomic); edges are
//! created by joining clocks:
//!
//! * lock release → acquire: release joins the thread clock into the
//!   lock clock, acquire joins the lock clock into the thread clock;
//! * atomic `Release` store → `Acquire` load: same shape, per atomic;
//! * spawn/join: the child starts from the parent's clock, and `join`
//!   folds the child's final clock back into the parent.
//!
//! Individual accesses are identified by *epochs* — `(tid, clock[tid])`
//! pairs — the FastTrack representation: an access at epoch `(t, c)`
//! happens-before a thread whose clock `C` satisfies `C[t] >= c`.

/// A vector clock over dense model-thread ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(Vec<u32>);

impl VClock {
    /// The zero clock (happens-before everything).
    pub const fn new() -> VClock {
        VClock(Vec::new())
    }

    /// The component for `tid` (0 when never ticked or joined).
    pub fn get(&self, tid: usize) -> u32 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    /// Advances `tid`'s own component past all prior events of that
    /// thread, returning the new value — the epoch of the event.
    pub fn tick(&mut self, tid: usize) -> u32 {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
        self.0[tid]
    }

    /// Pointwise maximum: afterwards `self` dominates both inputs.
    pub fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (s, o) in self.0.iter_mut().zip(other.0.iter()) {
            *s = (*s).max(*o);
        }
    }

    /// Whether the event at epoch `(tid, at)` happens-before this clock.
    pub fn saw(&self, tid: usize, at: u32) -> bool {
        self.get(tid) >= at
    }

    /// Pointwise `self <= other`: everything this clock has seen, the
    /// other has too. The checker needs only [`VClock::saw`]; the tests
    /// use this to state the order `join` builds.
    #[cfg(test)]
    pub fn le(&self, other: &VClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(tid, &c)| other.get(tid) >= c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_advances_only_own_component() {
        let mut c = VClock::new();
        assert_eq!(c.tick(2), 1);
        assert_eq!(c.tick(2), 2);
        assert_eq!(c.get(2), 2);
        assert_eq!(c.get(0), 0);
        assert_eq!(c.get(9), 0);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VClock::new();
        a.tick(0);
        a.tick(0);
        let mut b = VClock::new();
        b.tick(1);
        b.tick(2);
        b.tick(2);
        a.join(&b);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 1);
        assert_eq!(a.get(2), 2);
        // Join is idempotent and commutative on these inputs.
        let snap = a.clone();
        a.join(&b);
        assert_eq!(a, snap);
    }

    #[test]
    fn epoch_visibility_tracks_hb() {
        let mut writer = VClock::new();
        let at = writer.tick(0); // the write event, epoch (0, 1)
        let mut lock = VClock::new();
        lock.join(&writer); // release
        let mut reader = VClock::new();
        reader.tick(1);
        assert!(!reader.saw(0, at)); // no acquire yet: concurrent
        reader.join(&lock); // acquire
        assert!(reader.saw(0, at));
    }

    #[test]
    fn le_is_a_partial_order() {
        let mut a = VClock::new();
        a.tick(0);
        let mut b = VClock::new();
        b.tick(1);
        // a and b are incomparable.
        assert!(!a.le(&b));
        assert!(!b.le(&a));
        let mut ab = a.clone();
        ab.join(&b);
        assert!(a.le(&ab));
        assert!(b.le(&ab));
        assert!(ab.le(&ab));
        // The zero clock precedes everything.
        assert!(VClock::new().le(&a));
    }
}
