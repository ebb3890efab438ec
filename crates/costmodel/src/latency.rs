//! A log device that takes the paper's optical-disk time per access.
//!
//! Wrapping a volume's device with [`LatencyDevice`] makes every physical
//! access cost a seek (~150 ms, §3.3.2) when the head moves, plus one
//! transfer per block. How that time is spent is the constructor's
//! choice: given a virtual [`ManualClock`] it advances the clock, so
//! benchmarks *measure* modelled latency by driving the real service and
//! reading the clock; without one it holds the calling thread for it
//! (`clio_obs::clock::hold`), so real threads meet behind a write that
//! really takes time.

use std::sync::Arc;

use clio_device::{LogDevice, SharedDevice};
use clio_testkit::sync::atomic::{AtomicI64, Ordering};
use clio_types::{BlockNo, ManualClock, Result};

use crate::cost::CostModel;

/// A [`LogDevice`] whose physical accesses take [`CostModel`] time.
pub struct LatencyDevice {
    inner: SharedDevice,
    model: CostModel,
    /// Where the time goes: a virtual clock, or (`None`) the host's.
    clock: Option<Arc<ManualClock>>,
    /// Head position; -1 = unknown (first access always seeks).
    head: AtomicI64,
}

impl LatencyDevice {
    /// Wraps `inner`, spending `model` costs on `clock` — advancing it —
    /// or, with `None`, holding each caller for that much host time.
    #[must_use]
    pub fn new(
        inner: SharedDevice,
        model: CostModel,
        clock: Option<Arc<ManualClock>>,
    ) -> LatencyDevice {
        LatencyDevice {
            inner,
            model,
            clock,
            head: AtomicI64::new(-1),
        }
    }

    /// Takes the time of accessing `n` consecutive blocks from `first`.
    fn access(&self, first: BlockNo, n: u64) {
        let pos = first.0 as i64;
        let prev = self.head.swap(pos + n as i64 - 1, Ordering::Relaxed);
        // Sequential access (same or next block) skips the seek, like a
        // head already on track; everything else pays the average seek.
        let mut us = n * self.model.optical_transfer_us;
        if prev < 0 || (pos - prev).unsigned_abs() > 1 {
            us += self.model.optical_seek_us;
        }
        match &self.clock {
            Some(clock) => clock.advance(us),
            None => clio_obs::clock::hold(us),
        }
    }
}

impl LogDevice for LatencyDevice {
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
        self.access(block, 1);
        self.inner.is_written(block)
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        self.access(expected, 1);
        self.inner.append_block(expected, data)
    }

    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        // One vectored write: at most one seek, then a transfer per block.
        if !blocks.is_empty() {
            self.access(expected, blocks.len() as u64);
        }
        self.inner.append_blocks(expected, blocks)
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        self.access(block, 1);
        self.inner.read_block(block, buf)
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        self.access(block, 1);
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

    fn on_clock(capacity: u64) -> (LatencyDevice, Arc<ManualClock>, CostModel) {
        let clock = Arc::new(ManualClock::starting_at(Timestamp::ZERO));
        let model = CostModel::default();
        let dev = LatencyDevice::new(
            Arc::new(MemWormDevice::new(64, capacity)),
            model,
            Some(clock.clone()),
        );
        (dev, clock, model)
    }

    #[test]
    fn sequential_appends_seek_once() {
        let (dev, clock, model) = on_clock(32);
        let blk = vec![0u8; 64];
        for i in 0..10 {
            dev.append_block(BlockNo(i), &blk).unwrap();
        }
        let elapsed = clock.now_us();
        // One initial seek + 10 transfers.
        let want = model.optical_seek_us + 10 * model.optical_transfer_us;
        assert_eq!(elapsed, want, "elapsed {elapsed} µs");
    }

    #[test]
    fn random_reads_seek_every_time() {
        let (dev, clock, model) = on_clock(64);
        let blk = vec![0u8; 64];
        for i in 0..32 {
            dev.append_block(BlockNo(i), &blk).unwrap();
        }
        let t0 = clock.now_us();
        let mut buf = vec![0u8; 64];
        for b in [28u64, 2, 17, 5] {
            dev.read_block(BlockNo(b), &mut buf).unwrap();
        }
        let elapsed = clock.now_us() - t0;
        let want = 4 * (model.optical_seek_us + model.optical_transfer_us);
        assert_eq!(elapsed, want);
    }

    #[test]
    fn a_vectored_write_seeks_at_most_once() {
        let (dev, clock, model) = on_clock(64);
        let blk: &[u8] = &[0u8; 64];
        dev.append_blocks(BlockNo(0), &[blk; 4]).unwrap();
        // One seek onto the track, then a transfer per block.
        let first = model.optical_seek_us + 4 * model.optical_transfer_us;
        assert_eq!(clock.now_us(), first);
        // The head ends on the batch's last block: the next batch follows
        // on without a seek; an empty batch takes no time.
        dev.append_blocks(BlockNo(4), &[blk; 3]).unwrap();
        dev.append_blocks(BlockNo(7), &[]).unwrap();
        assert_eq!(clock.now_us(), first + 3 * model.optical_transfer_us);
        // A read far behind moves the head; the next batch seeks back.
        let mut buf = [0u8; 64];
        dev.read_block(BlockNo(1), &mut buf).unwrap();
        let t0 = clock.now_us();
        dev.append_blocks(BlockNo(7), &[blk; 2]).unwrap();
        let want = model.optical_seek_us + 2 * model.optical_transfer_us;
        assert_eq!(clock.now_us() - t0, want);
    }
}
