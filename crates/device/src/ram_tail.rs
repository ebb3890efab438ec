//! Battery-backed RAM staging for the tail of the log.
//!
//! On a purely write-once device, frequent forced writes cause internal
//! fragmentation because a partially filled block, once written, can never
//! be completed. The paper therefore proposes that "the tail end of the log
//! device is implemented as rewriteable non-volatile storage, such as
//! battery backed-up RAM" (§2.3.1). [`RamTailDevice`] models exactly that:
//! the block at the append point may be rewritten any number of times, and
//! is burned to the underlying WORM device only when sealed.
//!
//! # Torn burns
//!
//! A burn that fails midway can leave the WORM slot "written with garbage"
//! (§2.3.2). A write-once slot can never be re-burned, so if the staged
//! image were discarded whenever the slot reads as written, a torn burn
//! would destroy the only good copy of forced-acknowledged data — the
//! whole-system simulator found exactly that loss. The battery-backed RAM
//! therefore retires a staged image only after verifying the medium holds
//! the intended bytes; a garbage burn instead *orphans* the image: it
//! stays pinned in NV RAM for the volume's lifetime, shadowing the
//! unusable slot, so reads (and crash recovery) keep seeing the
//! authoritative content.

use std::collections::BTreeMap;

use clio_testkit::sync::{Mutex, MutexGuard};

use clio_types::{BlockNo, ClioError, Result, INVALIDATED_BYTE};

use crate::traits::{check_len, locate_end, LogDevice, SharedDevice};

/// A log device with a rewriteable, non-volatile tail block.
///
/// The wrapper is itself non-volatile: in simulations a server "crash"
/// destroys the server's in-memory structures but keeps the device (and with
/// it the battery-backed tail buffer) alive, so no forced data is lost.
pub struct RamTailDevice {
    inner: SharedDevice,
    tail: Mutex<TailState>,
}

struct TailState {
    /// The rewriteable block at the append point, if staged.
    tail: Option<Tail>,
    /// Images whose WORM burn was torn (the medium slot holds garbage):
    /// the battery-backed RAM serves them forever, keyed by block number.
    orphans: BTreeMap<u64, Vec<u8>>,
    /// What a failed burn of the staged block meant to land, kept while the
    /// medium cannot say what did land (it is down, or the slot does not
    /// read). The staged image stays beside it; the next use of the device
    /// on which the medium answers retires or orphans that image.
    unsettled: Option<Vec<u8>>,
}

/// What the medium holds where a failed burn was aimed.
enum Landed {
    Nothing,
    Intended,
    Garbage,
    /// The medium did not answer: *could not read* is not *read something
    /// else*, and only the latter may orphan the staged image.
    Unknown,
}

struct Tail {
    block: BlockNo,
    data: Vec<u8>,
}

impl RamTailDevice {
    /// Wraps `inner` with a battery-backed tail buffer.
    #[must_use]
    pub fn new(inner: SharedDevice) -> RamTailDevice {
        RamTailDevice {
            inner,
            // Held across the inner device's appends by design: sealing
            // the staged tail block must be atomic w.r.t. other appenders.
            tail: Mutex::with_class_io(
                TailState {
                    tail: None,
                    orphans: BTreeMap::new(),
                    unsettled: None,
                },
                "device.ram_tail",
            ),
        }
    }

    /// Whether a tail buffer currently holds an unsealed block. Test hook.
    #[must_use]
    pub fn has_tail(&self) -> bool {
        self.settled().tail.is_some()
    }

    /// Blocks pinned in NV RAM because their burn was torn. Test hook.
    #[must_use]
    pub fn orphaned_blocks(&self) -> Vec<BlockNo> {
        self.settled()
            .orphans
            .keys()
            .copied()
            .map(BlockNo)
            .collect()
    }

    /// Asks the medium what a failed burn of `intended` at `block` left.
    fn landed(&self, block: BlockNo, intended: &[u8]) -> Landed {
        match self.inner.is_written(block) {
            Ok(true) => {}
            Ok(false) => return Landed::Nothing,
            Err(_) => return Landed::Unknown,
        }
        let mut buf = vec![0u8; self.inner.block_size()];
        match self.inner.read_block(block, &mut buf) {
            Ok(()) if buf == intended => Landed::Intended,
            Ok(()) => Landed::Garbage,
            Err(_) => Landed::Unknown,
        }
    }

    /// Settles the staged image after a burn of `intended` at its block
    /// failed. Nothing landed: keep the image staged for a retry. The
    /// intended bytes landed despite the error: retire the image. The slot
    /// was torn with garbage: orphan the image — the slot is unusable, the
    /// NV copy is now the authoritative content. The medium cannot say:
    /// keep both and decide later (`settled`).
    fn settle_failed_burn(&self, st: &mut TailState, intended: Vec<u8>) {
        let Some(t) = &st.tail else {
            return;
        };
        match self.landed(t.block, &intended) {
            Landed::Nothing => {}
            Landed::Intended => st.tail = None,
            Landed::Garbage => {
                if let Some(t) = st.tail.take() {
                    st.orphans.insert(t.block.0, t.data);
                }
            }
            Landed::Unknown => st.unsettled = Some(intended),
        }
    }

    /// The tail state for an op that reads it, an unsettled burn decided
    /// first if the medium now answers (if not, the staged image keeps
    /// answering, as it did before the burn).
    fn settled(&self) -> MutexGuard<'_, TailState> {
        let mut g = self.tail.lock();
        if let Some(intended) = g.unsettled.take() {
            self.settle_failed_burn(&mut g, intended);
        }
        g
    }

    /// The tail state for an op that writes: a burn whose outcome is still
    /// unknown must be decided before anything is built on that slot.
    fn settled_for_write(&self) -> Result<MutexGuard<'_, TailState>> {
        let g = self.settled();
        if g.unsettled.is_some() {
            return Err(ClioError::Io(
                "RAM tail: the medium cannot yet say what a failed burn left".to_owned(),
            ));
        }
        Ok(g)
    }

    /// Burns the staged image through to WORM (the "drain" when an append
    /// moves past a staged block). On a torn burn the image is orphaned
    /// and draining counts as done; a burn that wrote nothing, or whose
    /// outcome the medium cannot report, keeps the image staged and
    /// surfaces the error.
    fn drain_staged(&self, st: &mut TailState) -> Result<()> {
        let Some(t) = &st.tail else {
            return Ok(());
        };
        match self.inner.append_block(t.block, &t.data) {
            Ok(()) => {
                st.tail = None;
                Ok(())
            }
            Err(e) => {
                let intended = t.data.clone();
                self.settle_failed_burn(st, intended);
                if st.tail.is_some() {
                    Err(e)
                } else {
                    Ok(())
                }
            }
        }
    }
}

impl LogDevice for RamTailDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn query_end(&self) -> Option<BlockNo> {
        let end = self.inner.query_end()?;
        let g = self.settled();
        Some(match &g.tail {
            Some(t) if t.block == end => end.next(),
            _ => end,
        })
    }

    fn is_written(&self, block: BlockNo) -> Result<bool> {
        let g = self.settled();
        if let Some(t) = &g.tail {
            if t.block == block {
                return Ok(true);
            }
        }
        if g.orphans.contains_key(&block.0) {
            return Ok(true);
        }
        drop(g);
        self.inner.is_written(block)
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        self.append_blocks(expected, &[data])
    }

    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        for b in blocks {
            check_len(self.block_size(), b.len())?;
        }
        let mut g = self.settled_for_write()?;
        match &g.tail {
            // The batch starts at the staged block: its first element is the
            // sealed (final) contents of the tail, so burn the whole batch
            // through and retire the buffer — but only once the burn
            // verifiably landed. On failure the buffer is kept unless the
            // intended first block did land; a slot torn with garbage
            // orphans the image instead (module docs: torn burns).
            Some(t) if t.block == expected => {
                let r = self.inner.append_blocks(expected, blocks);
                match &r {
                    Ok(()) => g.tail = None,
                    Err(_) => self.settle_failed_burn(&mut g, blocks[0].to_vec()),
                }
                r
            }
            // Appending past a staged block (e.g. after a crash recovered
            // the staged tail as-is): drain the battery-backed RAM to the
            // medium first, then write the batch.
            Some(t) if t.block.next() == expected => {
                self.drain_staged(&mut g)?;
                self.inner.append_blocks(expected, blocks)
            }
            Some(t) => Err(ClioError::NotAppendOnly {
                attempted: expected,
                end: t.block.next(),
            }),
            None => self.inner.append_blocks(expected, blocks),
        }
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        check_len(self.block_size(), buf.len())?;
        let g = self.settled();
        if let Some(t) = &g.tail {
            if t.block == block {
                buf.copy_from_slice(&t.data);
                return Ok(());
            }
        }
        if let Some(d) = g.orphans.get(&block.0) {
            buf.copy_from_slice(d);
            return Ok(());
        }
        drop(g);
        self.inner.read_block(block, buf)
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        let mut g = self.settled_for_write()?;
        if let Some(t) = &mut g.tail {
            if t.block == block {
                t.data.fill(INVALIDATED_BYTE);
                return Ok(());
            }
        }
        if let Some(d) = g.orphans.get_mut(&block.0) {
            d.fill(INVALIDATED_BYTE);
            return Ok(());
        }
        drop(g);
        self.inner.invalidate_block(block)
    }

    fn rewrite_tail(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        check_len(self.block_size(), data.len())?;
        if block.0 >= self.capacity_blocks() {
            return Err(ClioError::OutOfRange(block));
        }
        let mut g = self.settled_for_write()?;
        // Opening the next tail while the previous one is still staged
        // (e.g. right after a crash recovery) drains the old buffer to the
        // WORM medium first.
        if let Some(t) = &g.tail {
            if t.block.next() == block {
                self.drain_staged(&mut g)?;
            }
        }
        // The first block not burned to WORM.
        let (end, _) = locate_end(&*self.inner)?;
        if block != end {
            return Err(ClioError::NotAppendOnly {
                attempted: block,
                end,
            });
        }
        g.tail = Some(Tail {
            block,
            data: data.to_vec(),
        });
        Ok(())
    }

    fn supports_tail_rewrite(&self) -> bool {
        true
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::MemWormDevice;

    fn device() -> (Arc<MemWormDevice>, RamTailDevice) {
        let worm = Arc::new(MemWormDevice::new(32, 16));
        let dev = RamTailDevice::new(worm.clone());
        (worm, dev)
    }

    #[test]
    fn tail_is_rewriteable_until_sealed() {
        let (worm, dev) = device();
        assert!(dev.supports_tail_rewrite());
        dev.rewrite_tail(BlockNo(0), &[1u8; 32]).unwrap();
        dev.rewrite_tail(BlockNo(0), &[2u8; 32]).unwrap();
        dev.rewrite_tail(BlockNo(0), &[3u8; 32]).unwrap();
        // Visible through reads, but not yet on the WORM medium.
        let mut buf = vec![0u8; 32];
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, vec![3u8; 32]);
        assert_eq!(worm.query_end(), Some(BlockNo(0)));
        assert_eq!(dev.query_end(), Some(BlockNo(1)));
        // Sealing burns the final contents.
        dev.append_block(BlockNo(0), &[4u8; 32]).unwrap();
        assert!(!dev.has_tail());
        assert_eq!(worm.query_end(), Some(BlockNo(1)));
        let mut buf = vec![0u8; 32];
        worm.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, vec![4u8; 32]);
    }

    #[test]
    fn rewrite_is_only_allowed_at_the_append_point() {
        let (_worm, dev) = device();
        dev.append_block(BlockNo(0), &[9u8; 32]).unwrap();
        // Rewriting a sealed block is refused.
        assert!(matches!(
            dev.rewrite_tail(BlockNo(0), &[1u8; 32]).unwrap_err(),
            ClioError::NotAppendOnly { .. }
        ));
        // Rewriting beyond the append point is refused.
        assert!(matches!(
            dev.rewrite_tail(BlockNo(2), &[1u8; 32]).unwrap_err(),
            ClioError::NotAppendOnly { .. }
        ));
        // At the append point it succeeds.
        dev.rewrite_tail(BlockNo(1), &[1u8; 32]).unwrap();
    }

    #[test]
    fn tail_survives_while_device_lives() {
        // A server crash drops server state, not the device; the tail buffer
        // models battery-backed RAM and must still be readable.
        let (_worm, dev) = device();
        let dev = Arc::new(dev);
        dev.rewrite_tail(BlockNo(0), &[0x77; 32]).unwrap();
        // "Crash": all we keep is the device handle.
        let recovered = dev.clone();
        let mut buf = vec![0u8; 32];
        recovered.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, vec![0x77; 32]);
        assert!(recovered.is_written(BlockNo(0)).unwrap());
    }

    #[test]
    fn invalidate_hits_tail_buffer_when_present() {
        let (_worm, dev) = device();
        dev.rewrite_tail(BlockNo(0), &[5u8; 32]).unwrap();
        dev.invalidate_block(BlockNo(0)).unwrap();
        let mut buf = vec![0u8; 32];
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == INVALIDATED_BYTE));
    }

    #[test]
    fn appends_without_tail_pass_through() {
        let (worm, dev) = device();
        dev.append_block(BlockNo(0), &[1u8; 32]).unwrap();
        dev.append_block(BlockNo(1), &[2u8; 32]).unwrap();
        assert_eq!(worm.query_end(), Some(BlockNo(2)));
    }
}

#[cfg(test)]
mod seal_tests {
    use std::sync::Arc;

    use super::*;
    use crate::MemWormDevice;

    /// The whole-system simulator's first counterexample (seed 1 of the
    /// initial storm): a forced append staged block N in battery RAM;
    /// group commit later sealed N and burned it via `append_blocks`; the
    /// burn was torn, landing garbage on the WORM slot. The old error
    /// path retired the staged buffer because the slot read as "written",
    /// destroying the only good copy of forced-acknowledged data —
    /// recovery then invalidated the garbage and the durable entry was
    /// gone. The staged image must instead be orphaned into NV RAM and
    /// keep shadowing the unusable slot.
    #[test]
    fn regression_torn_seal_burn_keeps_staged_image() {
        use crate::fault::{CrashSwitch, FaultPlan, FaultyDevice};

        let worm = Arc::new(MemWormDevice::new(32, 16));
        let sw = CrashSwitch::new(0xBAD_B02);
        let faulty = Arc::new(FaultyDevice::with_switch(
            worm.clone(),
            FaultPlan::default(),
            sw.clone(),
        ));
        let dev = RamTailDevice::new(faulty);

        // Forced data staged in the battery-backed tail.
        let staged = vec![0xF0; 32];
        dev.rewrite_tail(BlockNo(0), &staged).unwrap();
        // The seal burn is torn: garbage lands on the slot, then the error.
        sw.arm(1, true);
        let sealed = vec![0xF1; 32];
        assert!(dev.append_blocks(BlockNo(0), &[&sealed]).is_err());
        sw.clear();

        // The slot is burned (with garbage), but the staged image shadows
        // it: reads — and therefore crash recovery — see the forced data.
        assert_eq!(dev.orphaned_blocks(), vec![BlockNo(0)]);
        assert!(!dev.has_tail());
        let mut buf = vec![0u8; 32];
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, staged, "torn burn must not lose the staged image");
        // The medium itself really does hold garbage underneath.
        worm.read_block(BlockNo(0), &mut buf).unwrap();
        assert_ne!(buf, staged);
        assert_ne!(buf, sealed);

        // Life goes on: the device keeps appending past the orphaned slot.
        dev.append_block(BlockNo(1), &[0xF2; 32]).unwrap();
        dev.rewrite_tail(BlockNo(2), &[0xF3; 32]).unwrap();
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, staged, "orphan survives later appends");
    }

    /// Companion to the torn-burn regression: when the crash drops the
    /// seal burn cleanly (nothing lands), the image must stay *staged* —
    /// not orphaned — so a recovered server can still burn it properly.
    #[test]
    fn clean_crash_during_seal_keeps_image_staged() {
        use crate::fault::{CrashSwitch, FaultPlan, FaultyDevice};

        let worm = Arc::new(MemWormDevice::new(32, 16));
        let sw = CrashSwitch::new(0xBAD_B03);
        let faulty = Arc::new(FaultyDevice::with_switch(
            worm.clone(),
            FaultPlan::default(),
            sw.clone(),
        ));
        let dev = RamTailDevice::new(faulty);

        let staged = vec![0xA0; 32];
        dev.rewrite_tail(BlockNo(0), &staged).unwrap();
        sw.arm(1, false);
        assert!(dev.append_blocks(BlockNo(0), &[&[0xA1; 32]]).is_err());
        sw.clear();

        assert!(dev.has_tail());
        assert!(dev.orphaned_blocks().is_empty());
        assert_eq!(worm.query_end(), Some(BlockNo(0)), "nothing burned");
        // A later append past the tail drains the staged image to WORM.
        dev.append_block(BlockNo(1), &[0xA2; 32]).unwrap();
        let mut buf = vec![0u8; 32];
        worm.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, staged);
    }

    /// Sim seed 794 (ROADMAP item 1(a), carried through six PRs): a batch
    /// whose first block seals the staged tail lands that block, then the
    /// crash fires further on. `is_written` still answers but the read
    /// errors; folding *could not read* into *read something else*
    /// orphaned the older staged image over the good sealed block, and
    /// recovery lost an acknowledged entry from the middle of the log.
    #[test]
    fn regression_ram_tail_torn_batch_keeps_sealed_block() {
        use crate::fault::{CrashSwitch, FaultPlan, FaultyDevice};

        for garbage_tail in [false, true] {
            let worm = Arc::new(MemWormDevice::new(32, 16));
            let sw = CrashSwitch::new(794);
            let faulty = Arc::new(FaultyDevice::with_switch(
                worm.clone(),
                FaultPlan::default(),
                sw.clone(),
            ));
            let dev = RamTailDevice::new(faulty);

            let staged = vec![0xC0; 32];
            dev.rewrite_tail(BlockNo(0), &staged).unwrap();
            // The batch's first write (the seal) lands; its second crashes.
            sw.arm(2, garbage_tail);
            let sealed = vec![0xC1; 32];
            assert!(dev
                .append_blocks(BlockNo(0), &[&sealed, &[0xC2; 32]])
                .is_err());
            // While the medium is down the staged image keeps answering,
            // and nothing may be built on the undecided slot.
            let mut buf = vec![0u8; 32];
            dev.read_block(BlockNo(0), &mut buf).unwrap();
            assert_eq!(buf, staged);
            assert!(dev.rewrite_tail(BlockNo(0), &[0xC3; 32]).is_err());
            sw.clear();

            // The medium answers again: the seal landed, so the staged
            // image retires and the sealed bytes are what block 0 holds.
            assert!(dev.orphaned_blocks().is_empty(), "good block shadowed");
            assert!(!dev.has_tail());
            dev.read_block(BlockNo(0), &mut buf).unwrap();
            assert_eq!(buf, sealed, "the sealed block was lost");
            assert_eq!(dev.query_end(), worm.query_end());
        }
    }

    /// A medium whose next append lands but loses its acknowledgement: the
    /// write reports an error and the device is down, reads included, until
    /// `up` — a crash between the burn and its completion interrupt.
    struct LostAck {
        inner: MemWormDevice,
        /// `Some(false)`: armed; `Some(true)`: fired, device down.
        down: Mutex<Option<bool>>,
    }

    impl LostAck {
        fn check_up(&self) -> Result<()> {
            match *self.down.lock() {
                Some(true) => Err(ClioError::Io("lost ack: device down".to_owned())),
                _ => Ok(()),
            }
        }
    }

    impl LogDevice for LostAck {
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
            self.check_up()?;
            self.inner.append_block(expected, data)?;
            let mut down = self.down.lock();
            if *down == Some(false) {
                *down = Some(true);
                return Err(ClioError::Io("lost ack: crashed after the burn".to_owned()));
            }
            Ok(())
        }
        fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
            self.check_up()?;
            self.inner.read_block(block, buf)
        }
        fn invalidate_block(&self, block: BlockNo) -> Result<()> {
            self.check_up()?;
            self.inner.invalidate_block(block)
        }
    }

    /// The same confusion on the drain path: the staged image burns intact
    /// but the acknowledgement is lost and the medium will not read. The
    /// old code orphaned the image over its own good burn — pinned in NV
    /// RAM for the life of the volume; the burned block must simply stand.
    #[test]
    fn regression_ram_tail_torn_drain_keeps_burned_block() {
        let medium = Arc::new(LostAck {
            inner: MemWormDevice::new(32, 16),
            down: Mutex::new(None),
        });
        let dev = RamTailDevice::new(medium.clone());

        let staged = vec![0xD0; 32];
        dev.rewrite_tail(BlockNo(0), &staged).unwrap();
        // Appending past the staged block drains it first; that burn lands
        // and then the device dies.
        *medium.down.lock() = Some(false);
        assert!(dev.append_blocks(BlockNo(1), &[&[0xD1; 32]]).is_err());
        assert!(dev.append_block(BlockNo(1), &[0xD1; 32]).is_err());
        *medium.down.lock() = None;

        assert!(dev.orphaned_blocks().is_empty(), "good burn orphaned");
        assert!(!dev.has_tail());
        let mut buf = vec![0u8; 32];
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, staged);
        // The device carries on from the burned block.
        dev.append_block(BlockNo(1), &[0xD1; 32]).unwrap();
        assert_eq!(medium.inner.query_end(), Some(BlockNo(2)));
    }

    #[test]
    fn appending_past_a_staged_tail_flushes_it() {
        let worm = Arc::new(MemWormDevice::new(32, 16));
        let dev = RamTailDevice::new(worm.clone());
        dev.rewrite_tail(BlockNo(0), &[1u8; 32]).unwrap();
        // A recovered server continues at block 1 without re-sealing.
        dev.append_block(BlockNo(1), &[2u8; 32]).unwrap();
        assert!(!dev.has_tail());
        let mut buf = vec![0u8; 32];
        worm.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; 32]);
        worm.read_block(BlockNo(1), &mut buf).unwrap();
        assert_eq!(buf, vec![2u8; 32]);
        // Appending far past the tail is still refused.
        dev.rewrite_tail(BlockNo(2), &[3u8; 32]).unwrap();
        assert!(dev.append_block(BlockNo(5), &[0u8; 32]).is_err());
    }
}
