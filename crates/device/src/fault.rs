//! Fault injection for log devices.
//!
//! §2.3.2: "Log volume corruption must be assumed to occur, since a log
//! volume may be written over a long period of time, during which hardware
//! and software failures may occur. A failure may cause a portion of the log
//! volume to be written with garbage." [`FaultyDevice`] wraps a device and
//! injects exactly those failures, deterministically (seeded), so the
//! recovery paths in `clio-core` can be tested and benchmarked.

use std::sync::Arc;

use clio_testkit::rng::StdRng;
use clio_testkit::sync::Mutex;

use clio_types::{BlockNo, ClioError, Result};

use crate::traits::{LogDevice, SharedDevice};

/// What a write operation should do, as decided by a [`CrashSwitch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteFate {
    /// No crash pending: perform the write normally.
    Proceed,
    /// The device is already down: fail without touching the medium.
    Denied,
    /// The crash fires on this very operation; drop the write cleanly.
    CrashClean,
    /// The crash fires on this very operation; the half-finished write
    /// leaves seeded garbage on the medium (§2.3.2's "written with
    /// garbage") before the error surfaces.
    CrashGarbage,
}

#[derive(Debug)]
struct SwitchState {
    /// Write operations remaining before the crash fires (`None` = not
    /// armed).
    remaining: Option<u64>,
    /// Whether the crashing write leaves a garbage block behind.
    garbage_tail: bool,
    /// Set once the crash has fired; every device op fails until
    /// [`CrashSwitch::clear`].
    crashed: bool,
}

/// A seeded mid-run crash scheduler shared by every [`FaultyDevice`] of a
/// simulated server.
///
/// [`CrashSwitch::arm`] schedules a crash after the next N device *write*
/// operations (appends, tail rewrites, invalidations), counted across all
/// devices sharing the switch — so a crash can land between arbitrary
/// service operations, not only at append tear points. When it fires, the
/// triggering write is either dropped cleanly or replaced by a seeded
/// garbage block (a torn tail for recovery to invalidate), and every
/// subsequent operation — reads included — fails until the simulator
/// "restarts the server" by calling [`CrashSwitch::clear`] and running
/// recovery.
pub struct CrashSwitch {
    state: Mutex<SwitchState>,
    /// Source of garbage-tail bytes; seeded so torn tails replay exactly.
    rng: Mutex<StdRng>,
    /// Total write operations observed (test/sim oracle).
    ops: Mutex<u64>,
}

impl CrashSwitch {
    /// A disarmed switch whose garbage bytes derive from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Arc<CrashSwitch> {
        Arc::new(CrashSwitch {
            state: Mutex::new(SwitchState {
                remaining: None,
                garbage_tail: false,
                crashed: false,
            }),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            ops: Mutex::new(0),
        })
    }

    /// Arms the switch: the `after_ops`-th write operation from now
    /// crashes the device set. With `garbage_tail`, that operation leaves
    /// a garbage block on the medium first (a torn write); otherwise it
    /// is dropped cleanly. `after_ops` is clamped to at least 1.
    pub fn arm(&self, after_ops: u64, garbage_tail: bool) {
        let mut st = self.state.lock();
        st.remaining = Some(after_ops.max(1));
        st.garbage_tail = garbage_tail;
    }

    /// Whether the crash has fired (and [`clear`](CrashSwitch::clear) has
    /// not yet been called).
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Brings the devices back: disarms and un-crashes the switch so the
    /// simulator can run recovery against the surviving media.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.remaining = None;
        st.garbage_tail = false;
        st.crashed = false;
    }

    /// Total write operations ticked through this switch.
    #[must_use]
    pub fn write_ops(&self) -> u64 {
        *self.ops.lock()
    }

    /// Ticks one write operation and decides its fate.
    fn on_write_op(&self) -> WriteFate {
        let mut st = self.state.lock();
        if st.crashed {
            return WriteFate::Denied;
        }
        *self.ops.lock() += 1;
        match st.remaining {
            None => WriteFate::Proceed,
            Some(n) if n > 1 => {
                st.remaining = Some(n - 1);
                WriteFate::Proceed
            }
            Some(_) => {
                st.remaining = None;
                st.crashed = true;
                if st.garbage_tail {
                    WriteFate::CrashGarbage
                } else {
                    WriteFate::CrashClean
                }
            }
        }
    }

    /// Fails if the device set is down.
    fn check_up(&self) -> Result<()> {
        if self.state.lock().crashed {
            Err(ClioError::Io("simulated crash: device offline".to_owned()))
        } else {
            Ok(())
        }
    }

    fn fill_garbage(&self, buf: &mut [u8]) {
        self.rng.lock().fill(buf);
    }
}

/// What to inject, and how often.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability that an appended block is written as garbage instead of
    /// the intended data (random bytes; trailer CRC will not verify).
    pub garbage_append_prob: f64,
    /// Probability that an appended block suffers a burst of flipped bits
    /// (simulating a marginal write that later fails its CRC).
    pub bitrot_append_prob: f64,
    /// Number of bit-bursts per bit-rotted block.
    pub bitrot_bursts: usize,
    /// RNG seed, so failures are reproducible.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            garbage_append_prob: 0.0,
            bitrot_append_prob: 0.0,
            bitrot_bursts: 3,
            seed: 0x0C11_0F17,
        }
    }
}

impl FaultPlan {
    /// A plan that corrupts roughly `prob` of appends with garbage.
    #[must_use]
    pub fn garbage(prob: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            garbage_append_prob: prob,
            seed,
            ..FaultPlan::default()
        }
    }

    /// A plan that bit-rots roughly `prob` of appends.
    #[must_use]
    pub fn bitrot(prob: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            bitrot_append_prob: prob,
            seed,
            ..FaultPlan::default()
        }
    }
}

/// A [`LogDevice`] wrapper that corrupts writes according to a [`FaultPlan`].
pub struct FaultyDevice {
    inner: SharedDevice,
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    corrupted: Mutex<Vec<BlockNo>>,
    /// Countdown trigger: corrupt exactly this many of the next appends.
    force_next: Mutex<u32>,
    /// One-shot trigger: tear the next `append_blocks` batch after this
    /// many blocks have landed.
    tear_after: Mutex<Option<usize>>,
    /// Shared mid-run crash scheduler, if any.
    switch: Option<Arc<CrashSwitch>>,
}

impl FaultyDevice {
    /// Wraps `inner` with the given plan.
    #[must_use]
    pub fn new(inner: SharedDevice, plan: FaultPlan) -> FaultyDevice {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultyDevice {
            inner,
            plan,
            rng: Mutex::new(rng),
            corrupted: Mutex::new(Vec::new()),
            force_next: Mutex::new(0),
            tear_after: Mutex::new(None),
            switch: None,
        }
    }

    /// Wraps `inner` with the given plan and a shared [`CrashSwitch`] —
    /// how a simulated server's whole device set crashes at one seeded
    /// point mid-run.
    #[must_use]
    pub fn with_switch(
        inner: SharedDevice,
        plan: FaultPlan,
        switch: Arc<CrashSwitch>,
    ) -> FaultyDevice {
        let mut dev = FaultyDevice::new(inner, plan);
        dev.switch = Some(switch);
        dev
    }

    /// Forces the next append to be written as garbage, regardless of the
    /// plan's probabilities. Useful for targeted tests.
    pub fn corrupt_next_append(&self) {
        self.corrupt_next_appends(1);
    }

    /// Forces each of the next `n` appends to be written as garbage — a
    /// re-placed block's retries included, so a verifying writer sees the
    /// same block fail `n` times in a row.
    pub fn corrupt_next_appends(&self, n: u32) {
        *self.force_next.lock() = n;
    }

    /// Tears the next vectored `append_blocks` call after `k` blocks have
    /// landed: the first `k` blocks of the batch are written normally, the
    /// rest are dropped on the floor, and the call reports an I/O error —
    /// the crash-mid-batch a torn-batch recovery test needs. One-shot; if
    /// the next batch has `<= k` blocks it completes normally and the
    /// trigger is consumed.
    pub fn tear_next_batch_after(&self, k: usize) {
        *self.tear_after.lock() = Some(k);
    }

    /// Blocks that were written corrupted, in write order. Test oracle.
    #[must_use]
    pub fn corrupted_blocks(&self) -> Vec<BlockNo> {
        self.corrupted.lock().clone()
    }
}

impl LogDevice for FaultyDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn query_end(&self) -> Option<BlockNo> {
        self.inner.query_end()
    }

    fn is_written(&self, block: BlockNo) -> Result<bool> {
        self.inner.is_written(block)
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        if let Some(sw) = &self.switch {
            match sw.on_write_op() {
                WriteFate::Proceed => {}
                WriteFate::Denied => {
                    return Err(ClioError::Io("simulated crash: device offline".to_owned()));
                }
                WriteFate::CrashClean => {
                    return Err(ClioError::Io("simulated crash: append dropped".to_owned()));
                }
                WriteFate::CrashGarbage => {
                    // The torn write lands as garbage (recovery will CRC-fail
                    // and invalidate it), then the crash surfaces.
                    let mut garbage = vec![0u8; data.len()];
                    sw.fill_garbage(&mut garbage);
                    self.inner.append_block(expected, &garbage)?;
                    self.corrupted.lock().push(expected);
                    return Err(ClioError::Io(
                        "simulated crash: torn garbage tail".to_owned(),
                    ));
                }
            }
        }
        let mut rng = self.rng.lock();
        let forced = {
            let mut left = self.force_next.lock();
            let forced = *left > 0;
            *left = left.saturating_sub(1);
            forced
        };
        if forced || rng.gen_bool(self.plan.garbage_append_prob.clamp(0.0, 1.0)) {
            let mut garbage = vec![0u8; data.len()];
            rng.fill(&mut garbage[..]);
            drop(rng);
            self.inner.append_block(expected, &garbage)?;
            self.corrupted.lock().push(expected);
            return Ok(());
        }
        if rng.gen_bool(self.plan.bitrot_append_prob.clamp(0.0, 1.0)) {
            let mut rotted = data.to_vec();
            for _ in 0..self.plan.bitrot_bursts.max(1) {
                let at = rng.gen_range(0..rotted.len());
                rotted[at] ^= 1 << rng.gen_range(0..8u32);
            }
            drop(rng);
            self.inner.append_block(expected, &rotted)?;
            self.corrupted.lock().push(expected);
            return Ok(());
        }
        drop(rng);
        self.inner.append_block(expected, data)
    }

    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        let tear = self.tear_after.lock().take();
        let n = blocks.len();
        let stop = tear.map_or(n, |k| k.min(n));
        // Per-block so the plan's per-append faults stay live inside
        // batches (and so a tear leaves exactly `stop` blocks written).
        let mut at = expected;
        for b in &blocks[..stop] {
            self.append_block(at, b)?;
            at = at.next();
        }
        match tear {
            Some(k) if k < n => Err(ClioError::Io(format!(
                "fault injection tore batch after {k} of {n} blocks"
            ))),
            _ => Ok(()),
        }
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        if let Some(sw) = &self.switch {
            sw.check_up()?;
        }
        self.inner.read_block(block, buf)
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        if let Some(sw) = &self.switch {
            // Counts as a write op; a crash here drops the invalidation
            // cleanly (the old block content simply remains).
            if sw.on_write_op() != WriteFate::Proceed {
                return Err(ClioError::Io(
                    "simulated crash: invalidation dropped".to_owned(),
                ));
            }
        }
        self.inner.invalidate_block(block)
    }

    fn rewrite_tail(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        if let Some(sw) = &self.switch {
            // Counts as a write op; a crash here drops the rewrite cleanly
            // (the previously persisted tail image remains valid).
            if sw.on_write_op() != WriteFate::Proceed {
                return Err(ClioError::Io(
                    "simulated crash: tail rewrite dropped".to_owned(),
                ));
            }
        }
        self.inner.rewrite_tail(block, data)
    }

    fn supports_tail_rewrite(&self) -> bool {
        self.inner.supports_tail_rewrite()
    }

    fn sync(&self) -> Result<()> {
        if let Some(sw) = &self.switch {
            sw.check_up()?;
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::MemWormDevice;

    #[test]
    fn forced_corruption_garbles_exactly_one_block() {
        let dev = FaultyDevice::new(Arc::new(MemWormDevice::new(64, 16)), FaultPlan::default());
        let data = vec![0xAB; 64];
        dev.append_block(BlockNo(0), &data).unwrap();
        dev.corrupt_next_append();
        dev.append_block(BlockNo(1), &data).unwrap();
        dev.append_block(BlockNo(2), &data).unwrap();

        let mut buf = vec![0u8; 64];
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, data);
        dev.read_block(BlockNo(1), &mut buf).unwrap();
        assert_ne!(buf, data);
        dev.read_block(BlockNo(2), &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(dev.corrupted_blocks(), vec![BlockNo(1)]);
    }

    #[test]
    fn garbage_plan_is_deterministic_for_a_seed() {
        let run = |seed| {
            let dev = FaultyDevice::new(
                Arc::new(MemWormDevice::new(64, 256)),
                FaultPlan::garbage(0.25, seed),
            );
            let data = vec![0x55; 64];
            for i in 0..200 {
                dev.append_block(BlockNo(i), &data).unwrap();
            }
            dev.corrupted_blocks()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Roughly a quarter of appends corrupted.
        assert!(a.len() > 20 && a.len() < 90, "corrupted {} blocks", a.len());
    }

    #[test]
    fn crash_switch_fires_after_n_write_ops() {
        let sw = CrashSwitch::new(1);
        let dev = FaultyDevice::with_switch(
            Arc::new(MemWormDevice::new(64, 16)),
            FaultPlan::default(),
            sw.clone(),
        );
        let data = vec![0xCD; 64];
        sw.arm(3, false);
        dev.append_block(BlockNo(0), &data).unwrap();
        dev.append_block(BlockNo(1), &data).unwrap();
        let err = dev.append_block(BlockNo(2), &data).unwrap_err();
        assert!(err.to_string().contains("simulated crash"), "{err}");
        assert!(sw.crashed());
        // Everything fails while down — including reads.
        let mut buf = vec![0u8; 64];
        assert!(dev.append_block(BlockNo(2), &data).is_err());
        assert!(dev.read_block(BlockNo(0), &mut buf).is_err());
        assert!(dev.sync().is_err());
        // Block 2 was dropped cleanly: nothing on the medium.
        sw.clear();
        assert!(!dev.is_written(BlockNo(2)).unwrap());
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, data);
        // The device works again after clear().
        dev.append_block(BlockNo(2), &data).unwrap();
    }

    #[test]
    fn crash_switch_garbage_tail_lands_then_fails() {
        let sw = CrashSwitch::new(44);
        let dev = FaultyDevice::with_switch(
            Arc::new(MemWormDevice::new(64, 16)),
            FaultPlan::default(),
            sw.clone(),
        );
        let data = vec![0xEE; 64];
        dev.append_block(BlockNo(0), &data).unwrap();
        sw.arm(1, true);
        assert!(dev.append_block(BlockNo(1), &data).is_err());
        assert!(sw.crashed());
        sw.clear();
        // The torn block exists on the medium but holds garbage.
        assert!(dev.is_written(BlockNo(1)).unwrap());
        let mut buf = vec![0u8; 64];
        dev.read_block(BlockNo(1), &mut buf).unwrap();
        assert_ne!(buf, data);
        assert_eq!(dev.corrupted_blocks(), vec![BlockNo(1)]);
    }

    #[test]
    fn crash_switch_is_shared_across_devices() {
        let sw = CrashSwitch::new(9);
        let a = FaultyDevice::with_switch(
            Arc::new(MemWormDevice::new(64, 16)),
            FaultPlan::default(),
            sw.clone(),
        );
        let b = FaultyDevice::with_switch(
            Arc::new(MemWormDevice::new(64, 16)),
            FaultPlan::default(),
            sw.clone(),
        );
        let data = vec![0x11; 64];
        sw.arm(2, false);
        a.append_block(BlockNo(0), &data).unwrap();
        assert!(b.append_block(BlockNo(0), &data).is_err());
        // The sibling device is down too.
        assert!(a.append_block(BlockNo(1), &data).is_err());
        assert_eq!(sw.write_ops(), 2);
    }

    #[test]
    fn crash_switch_counts_tail_rewrites_and_invalidations() {
        let sw = CrashSwitch::new(3);
        let dev = FaultyDevice::with_switch(
            Arc::new(MemWormDevice::new(64, 16)),
            FaultPlan::default(),
            sw.clone(),
        );
        let data = vec![0x77; 64];
        dev.append_block(BlockNo(0), &data).unwrap();
        sw.arm(1, true);
        // Crash fires on the invalidation; even with garbage_tail armed it
        // is dropped cleanly, leaving the old content intact.
        assert!(dev.invalidate_block(BlockNo(0)).is_err());
        assert!(sw.crashed());
        sw.clear();
        let mut buf = vec![0u8; 64];
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn bitrot_changes_but_resembles_data() {
        let dev = FaultyDevice::new(
            Arc::new(MemWormDevice::new(64, 16)),
            FaultPlan::bitrot(1.0, 3),
        );
        let data = vec![0x00; 64];
        dev.append_block(BlockNo(0), &data).unwrap();
        let mut buf = vec![0u8; 64];
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        let flipped: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert!((1..=3 * 8).contains(&flipped), "{flipped} bits flipped");
    }
}
