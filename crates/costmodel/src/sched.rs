//! A seeded virtual-time scheduler over simulated clients.
//!
//! The whole-system simulator (`crates/core/tests/simulation.rs`) runs one
//! client operation at a time; this picks which, from one seeded stream,
//! and charges each operation's modelled cost to the same [`ManualClock`]
//! the service stamps entries with, so a run is a pure function of its
//! seed and never reads the host clock.

use std::sync::Arc;

use clio_testkit::rng::StdRng;
use clio_types::ManualClock;

/// A seeded virtual-time scheduler over N simulated clients.
///
/// Each client is either *runnable* or *blocked until* some virtual time
/// (set by [`Scheduler::charge`] when its last operation's modelled cost
/// is known). [`Scheduler::pick`] advances the clock to the earliest wake
/// time and chooses uniformly at random — from the seeded stream — among
/// every runnable client, which is where interleaving diversity comes
/// from.
pub struct Scheduler {
    clock: Arc<ManualClock>,
    rng: StdRng,
    wake: Vec<u64>,
}

impl Scheduler {
    /// A scheduler for `clients` clients whose entire interleaving is a
    /// function of `seed`.
    #[must_use]
    pub fn new(seed: u64, clients: usize, clock: Arc<ManualClock>) -> Scheduler {
        assert!(clients > 0, "scheduler needs at least one client");
        let now = clock.now_us();
        Scheduler {
            clock,
            rng: StdRng::seed_from_u64(seed),
            wake: vec![now; clients],
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// The scheduler's seeded randomness stream (also used by drivers for
    /// workload choices, so one seed covers everything).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Picks the next client to run: advances virtual time to the
    /// earliest wake point and chooses uniformly among all clients
    /// runnable at that time.
    pub fn pick(&mut self) -> u32 {
        let earliest = self
            .wake
            .iter()
            .copied()
            .min()
            .expect("invariant: scheduler has at least one client");
        self.clock.advance_to(earliest);
        let now = self.clock.now_us();
        let eligible: Vec<u32> = (0..self.wake.len() as u32)
            .filter(|&c| self.wake[c as usize] <= now)
            .collect();
        eligible[self.rng.gen_range(0..eligible.len())]
    }

    /// Charges `client` `us` microseconds of modelled operation (and
    /// think) time: it becomes runnable again at `now + us`.
    pub fn charge(&mut self, client: u32, us: u64) {
        self.wake[client as usize] = self.clock.now_us().saturating_add(us);
    }
}

#[cfg(test)]
mod tests {
    use clio_types::Timestamp;

    use super::*;

    fn clock(start_us: u64) -> Arc<ManualClock> {
        Arc::new(ManualClock::starting_at(Timestamp(start_us)))
    }

    #[test]
    fn scheduler_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = Scheduler::new(seed, 4, clock(0));
            let mut picks = Vec::new();
            for step in 0..200u64 {
                let c = s.pick();
                picks.push(c);
                s.charge(c, 10 + step % 7);
            }
            picks
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn scheduler_advances_time_and_runs_everyone() {
        let mut s = Scheduler::new(9, 3, clock(100));
        let mut seen = [false; 3];
        let mut last = 0;
        for _ in 0..60 {
            let c = s.pick();
            seen[c as usize] = true;
            assert!(s.now_us() >= last, "virtual time went backwards");
            last = s.now_us();
            s.charge(c, 50);
        }
        assert!(seen.iter().all(|&x| x), "some client never ran: {seen:?}");
        assert!(s.now_us() > 100, "clock never advanced");
    }
}
