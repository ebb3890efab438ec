//! A log device that charges modelled time to a [`CostClock`].
//!
//! Wrapping a volume's device with [`TimedDevice`] makes every physical
//! access advance the virtual clock by the paper's optical-disk costs —
//! seek (~150 ms, §3.3.2) when the head moves, plus transfer. Benchmarks
//! then *measure* modelled latency by driving the real service and reading
//! the clock, instead of computing it from operation counts.

use std::sync::Arc;

use clio_device::{LogDevice, SharedDevice};
use clio_testkit::sync::atomic::{AtomicI64, Ordering};
use clio_types::{BlockNo, Result};

use crate::cost::{CostClock, CostModel};

/// A [`LogDevice`] whose physical accesses advance a [`CostClock`].
pub struct TimedDevice {
    inner: SharedDevice,
    clock: Arc<CostClock>,
    model: CostModel,
    /// Head position; -1 = unknown (first access always seeks).
    head: AtomicI64,
}

impl TimedDevice {
    /// Wraps `inner`, charging `model` costs to `clock`.
    #[must_use]
    pub fn new(inner: SharedDevice, clock: Arc<CostClock>, model: CostModel) -> TimedDevice {
        TimedDevice {
            inner,
            clock,
            model,
            head: AtomicI64::new(-1),
        }
    }

    fn charge_access(&self, block: BlockNo) {
        let pos = block.0 as i64;
        let prev = self.head.swap(pos, Ordering::Relaxed);
        // Sequential access (same or next block) skips the seek, like a
        // head already on track; everything else pays the average seek.
        let mut cost = self.model.optical_transfer_us;
        if prev < 0 || (pos - prev).unsigned_abs() > 1 {
            cost += self.model.optical_seek_us;
        }
        self.clock.charge(cost);
    }
}

impl LogDevice for TimedDevice {
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
        self.charge_access(block);
        self.inner.is_written(block)
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        self.charge_access(expected);
        self.inner.append_block(expected, data)
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        self.charge_access(block);
        self.inner.read_block(block, buf)
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        self.charge_access(block);
        self.inner.invalidate_block(block)
    }

    fn rewrite_tail(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        // Tail rewrites hit battery-backed RAM, not the medium: no charge.
        self.inner.rewrite_tail(block, data)
    }

    fn supports_tail_rewrite(&self) -> bool {
        self.inner.supports_tail_rewrite()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use clio_device::MemWormDevice;
    use clio_types::Timestamp;

    use super::*;

    #[test]
    fn sequential_appends_seek_once() {
        let clock = Arc::new(CostClock::starting_at(Timestamp::ZERO));
        let model = CostModel::default();
        let dev = TimedDevice::new(Arc::new(MemWormDevice::new(64, 32)), clock.clone(), model);
        let blk = vec![0u8; 64];
        for i in 0..10 {
            dev.append_block(BlockNo(i), &blk).unwrap();
        }
        let elapsed = clock.elapsed_since(Timestamp::ZERO);
        // One initial seek + 10 transfers.
        let want = model.optical_seek_us + 10 * model.optical_transfer_us;
        assert_eq!(elapsed, want, "elapsed {elapsed} µs");
    }

    #[test]
    fn random_reads_seek_every_time() {
        let clock = Arc::new(CostClock::starting_at(Timestamp::ZERO));
        let model = CostModel::default();
        let dev = TimedDevice::new(Arc::new(MemWormDevice::new(64, 64)), clock.clone(), model);
        let blk = vec![0u8; 64];
        for i in 0..32 {
            dev.append_block(BlockNo(i), &blk).unwrap();
        }
        let t0 = Timestamp(clock.elapsed_since(Timestamp::ZERO));
        let mut buf = vec![0u8; 64];
        for b in [28u64, 2, 17, 5] {
            dev.read_block(BlockNo(b), &mut buf).unwrap();
        }
        let elapsed = clock.elapsed_since(Timestamp::ZERO) - t0.0;
        let want = 4 * (model.optical_seek_us + model.optical_transfer_us);
        assert_eq!(elapsed, want);
    }
}
