//! The write-once device: one rule, two media.

use std::fs::File;
use std::path::Path;

use clio_testkit::lockdep;
use clio_testkit::sync::Mutex;

use clio_types::{BlockNo, ClioError, Result, INVALIDATED_BYTE};

use crate::medium::{self, Medium};
use crate::traits::{check_len, LogDevice};

/// A write-once (WORM) device: the written portion is a prefix of the block
/// array, and [`LogDevice::append_blocks`] rejects any write that is not at
/// the append point — the defining property the Clio algorithms rely on.
///
/// The rule is enforced here, in software, over a medium that has none of
/// its own, exactly as the paper's development configuration "uses magnetic
/// disk to simulate write-once storage" (§3.1). The two media are memory
/// ([`MemWormDevice`]) and a host file ([`FileWormDevice`]).
pub struct WormDevice<M> {
    state: Mutex<State<M>>,
    block_size: usize,
    capacity: u64,
    end_query: bool,
}

struct State<M> {
    medium: M,
    /// Written blocks: the whole blocks of the medium's extent. A trailing
    /// partial block (a torn final write) is unwritten, and the next append
    /// lands over it (§2.3.1: a torn tail costs one block, not the volume).
    end: u64,
    /// Blocks burned to all 1s, in invalidation order.
    invalidated: Vec<u64>,
}

/// An in-memory write-once device. It survives a simulated server crash
/// simply by outliving the server structures (its contents model the
/// non-volatile medium).
pub type MemWormDevice = WormDevice<Vec<u8>>;

/// A write-once device backed by an ordinary host file: the written portion
/// is the file's extent, so the append point persists across process
/// restarts, and an append that returns has been `sync_data`'d.
pub type FileWormDevice = WormDevice<File>;

impl MemWormDevice {
    /// Creates a device of `capacity` blocks of `block_size` bytes.
    #[must_use]
    pub fn new(block_size: usize, capacity: u64) -> MemWormDevice {
        Self::over(Vec::new(), 0, "device.mem", block_size, capacity)
    }

    /// Directly scribbles garbage into a block, bypassing the append-only
    /// check — the hardware/software failure of §2.3.2 ("a failure may cause
    /// a portion of the log volume to be written with garbage").
    ///
    /// If the block lies beyond the current end, the written region is
    /// extended to cover it, modelling a runaway write head: the blocks in
    /// between read back as garbage (zero-filled here, undetectable magic).
    pub fn scribble(&self, block: BlockNo, garbage: &[u8]) -> Result<()> {
        self.on_device(block)?;
        let mut g = self.state.lock();
        if block.0 >= g.end {
            g.end = block.0 + 1;
            let extent = g.end as usize * self.block_size;
            g.medium.resize(extent, 0);
        }
        let n = garbage.len().min(self.block_size);
        g.medium.write_at(self.offset(block), &garbage[..n])?;
        Ok(())
    }
}

impl FileWormDevice {
    /// Creates (or truncates) a device file at `path`.
    pub fn create<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        capacity: u64,
    ) -> Result<FileWormDevice> {
        let file = medium::create_rw(path.as_ref())?;
        Ok(Self::over(file, 0, "device.file", block_size, capacity))
    }

    /// Opens an existing device file, preserving its written contents. The
    /// file itself is not touched: a trailing partial block stays where it
    /// is until an append lands over it.
    pub fn open<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        capacity: u64,
    ) -> Result<FileWormDevice> {
        let file = medium::open_rw(path.as_ref())?;
        let end = file.extent()? / block_size as u64;
        Ok(Self::over(file, end, "device.file", block_size, capacity))
    }
}

impl<M> WormDevice<M> {
    fn over(
        medium: M,
        end: u64,
        lock_class: &'static str,
        block_size: usize,
        capacity: u64,
    ) -> WormDevice<M> {
        let state = State {
            medium,
            end,
            invalidated: Vec::new(),
        };
        WormDevice {
            state: Mutex::with_class(state, lock_class),
            block_size,
            capacity,
            end_query: true,
        }
    }

    /// Disables the direct end-of-written-portion query, forcing recovery to
    /// locate the end by binary search (§2.3.1).
    #[must_use]
    pub fn without_end_query(mut self) -> WormDevice<M> {
        self.end_query = false;
        self
    }

    /// Blocks invalidated so far, in invalidation order. Test hook.
    #[must_use]
    pub fn invalidated_blocks(&self) -> Vec<BlockNo> {
        let g = self.state.lock();
        g.invalidated.iter().map(|&b| BlockNo(b)).collect()
    }

    fn offset(&self, block: BlockNo) -> u64 {
        block.0 * self.block_size as u64
    }

    fn on_device(&self, block: BlockNo) -> Result<()> {
        if block.0 >= self.capacity {
            return Err(ClioError::OutOfRange(block));
        }
        Ok(())
    }

    /// The byte offset of `block`, once it is known to be a written one.
    fn written(&self, st: &State<M>, block: BlockNo) -> Result<u64> {
        self.on_device(block)?;
        if block.0 >= st.end {
            return Err(ClioError::UnwrittenBlock(block));
        }
        Ok(self.offset(block))
    }
}

impl<M: Medium> LogDevice for WormDevice<M> {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity
    }

    fn query_end(&self) -> Option<BlockNo> {
        self.end_query.then(|| BlockNo(self.state.lock().end))
    }

    fn is_written(&self, block: BlockNo) -> Result<bool> {
        self.on_device(block)?;
        Ok(block.0 < self.state.lock().end)
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        self.append_blocks(expected, &[data])
    }

    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        lockdep::assert_no_locks_held("WormDevice::append_blocks");
        for b in blocks {
            check_len(self.block_size, b.len())?;
        }
        let n = blocks.len() as u64;
        let mut g = self.state.lock();
        if g.end + n > self.capacity {
            return Err(ClioError::VolumeFull);
        }
        if expected.0 != g.end {
            return Err(ClioError::NotAppendOnly {
                attempted: expected,
                end: BlockNo(g.end),
            });
        }
        let wrote = g.medium.append(self.offset(expected), blocks);
        if let Err(e) = wrote.and_then(|()| g.medium.sync()) {
            // What landed, landed: a failed write may have left whole
            // blocks behind, and those are written for good.
            if let Ok(extent) = g.medium.extent() {
                g.end = extent / self.block_size as u64;
            }
            return Err(e.into());
        }
        g.end += n;
        Ok(())
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        check_len(self.block_size, buf.len())?;
        let mut g = self.state.lock();
        let off = self.written(&g, block)?;
        g.medium.read_at(off, buf)?;
        Ok(())
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        lockdep::assert_no_locks_held("WormDevice::invalidate_block");
        let mut g = self.state.lock();
        let off = self.written(&g, block)?;
        let ones = vec![INVALIDATED_BYTE; self.block_size];
        g.medium.write_at(off, &ones)?;
        g.invalidated.push(block.0);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        lockdep::assert_no_locks_held("WormDevice::sync");
        self.state.lock().medium.sync()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    /// A scratch device file, removed when the test is done with it.
    struct TmpFile(PathBuf);

    impl TmpFile {
        fn new() -> TmpFile {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let name = format!("clio-worm-{}-{n}", std::process::id());
            TmpFile(std::env::temp_dir().join(name))
        }
    }

    impl Drop for TmpFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn mem(block_size: usize, capacity: u64) -> (MemWormDevice, ()) {
        (MemWormDevice::new(block_size, capacity), ())
    }

    fn file(block_size: usize, capacity: u64) -> (FileWormDevice, TmpFile) {
        let tmp = TmpFile::new();
        let dev = FileWormDevice::create(&tmp.0, block_size, capacity).unwrap();
        (dev, tmp)
    }

    fn read<M: Medium>(dev: &WormDevice<M>, block: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; dev.block_size()];
        dev.read_block(BlockNo(block), &mut buf).map(|()| buf)
    }

    /// The write-once rule, checked the same way on whatever medium `mk`
    /// builds a fresh device over (the second half of `mk`'s pair only
    /// keeps that medium alive).
    mod rule {
        use super::*;

        pub(super) fn append_then_read_round_trips<M: Medium, G>(
            mk: fn(usize, u64) -> (WormDevice<M>, G),
        ) {
            let (dev, _g) = mk(32, 4);
            dev.append_block(BlockNo(0), &[0xAA; 32]).unwrap();
            dev.append_blocks(BlockNo(1), &[&[0xBB; 32], &[0xCC; 32]])
                .unwrap();
            assert_eq!(read(&dev, 0).unwrap(), [0xAA; 32]);
            assert_eq!(read(&dev, 1).unwrap(), [0xBB; 32]);
            assert_eq!(read(&dev, 2).unwrap(), [0xCC; 32]);
            assert_eq!(dev.query_end(), Some(BlockNo(3)));
            assert!(dev.is_written(BlockNo(2)).unwrap());
            assert!(!dev.is_written(BlockNo(3)).unwrap());
        }

        pub(super) fn append_only_is_enforced<M: Medium, G>(
            mk: fn(usize, u64) -> (WormDevice<M>, G),
        ) {
            let (dev, _g) = mk(32, 4);
            dev.append_block(BlockNo(0), &[1; 32]).unwrap();
            // Rewriting block 0 is refused, and so is skipping ahead.
            for at in [0, 2] {
                assert_eq!(
                    dev.append_block(BlockNo(at), &[2; 32]).unwrap_err(),
                    ClioError::NotAppendOnly {
                        attempted: BlockNo(at),
                        end: BlockNo(1),
                    }
                );
            }
            // The original data is intact.
            assert_eq!(read(&dev, 0).unwrap(), [1; 32]);
            assert_eq!(dev.query_end(), Some(BlockNo(1)));
        }

        pub(super) fn reading_unwritten_or_out_of_range_fails<M: Medium, G>(
            mk: fn(usize, u64) -> (WormDevice<M>, G),
        ) {
            let (dev, _g) = mk(32, 4);
            assert_eq!(
                read(&dev, 0).unwrap_err(),
                ClioError::UnwrittenBlock(BlockNo(0))
            );
            assert_eq!(
                read(&dev, 9).unwrap_err(),
                ClioError::OutOfRange(BlockNo(9))
            );
            assert_eq!(
                dev.is_written(BlockNo(4)).unwrap_err(),
                ClioError::OutOfRange(BlockNo(4))
            );
        }

        pub(super) fn volume_fills_up<M: Medium, G>(mk: fn(usize, u64) -> (WormDevice<M>, G)) {
            let (dev, _g) = mk(16, 3);
            dev.append_block(BlockNo(0), &[0; 16]).unwrap();
            // A batch that would overrun the medium writes none of itself.
            let overrun: [&[u8]; 3] = [&[0; 16]; 3];
            assert_eq!(
                dev.append_blocks(BlockNo(1), &overrun).unwrap_err(),
                ClioError::VolumeFull
            );
            dev.append_blocks(BlockNo(1), &overrun[..2]).unwrap();
            assert_eq!(
                dev.append_block(BlockNo(3), &[0; 16]).unwrap_err(),
                ClioError::VolumeFull
            );
            assert_eq!(dev.query_end(), Some(BlockNo(3)));
        }

        pub(super) fn invalidation_burns_to_ones_and_persists<M: Medium, G>(
            mk: fn(usize, u64) -> (WormDevice<M>, G),
        ) {
            let (dev, _g) = mk(16, 4);
            dev.append_block(BlockNo(0), &[0x12; 16]).unwrap();
            dev.append_block(BlockNo(1), &[0x34; 16]).unwrap();
            dev.invalidate_block(BlockNo(0)).unwrap();
            assert_eq!(read(&dev, 0).unwrap(), [INVALIDATED_BYTE; 16]);
            assert_eq!(read(&dev, 1).unwrap(), [0x34; 16]);
            assert_eq!(dev.invalidated_blocks(), vec![BlockNo(0)]);
            // Later appends leave the burned block burned.
            dev.append_block(BlockNo(2), &[0x56; 16]).unwrap();
            assert_eq!(read(&dev, 0).unwrap(), [INVALIDATED_BYTE; 16]);
            // Only written blocks can be invalidated.
            assert_eq!(
                dev.invalidate_block(BlockNo(3)).unwrap_err(),
                ClioError::UnwrittenBlock(BlockNo(3))
            );
            assert_eq!(
                dev.invalidate_block(BlockNo(4)).unwrap_err(),
                ClioError::OutOfRange(BlockNo(4))
            );
        }

        pub(super) fn wrong_buffer_length_is_an_internal_error<M: Medium, G>(
            mk: fn(usize, u64) -> (WormDevice<M>, G),
        ) {
            let (dev, _g) = mk(16, 2);
            assert!(matches!(
                dev.append_block(BlockNo(0), &[0u8; 15]).unwrap_err(),
                ClioError::Internal(_)
            ));
            assert!(matches!(
                dev.append_blocks(BlockNo(0), &[&[0u8; 16], &[0u8; 17]])
                    .unwrap_err(),
                ClioError::Internal(_)
            ));
            assert_eq!(dev.query_end(), Some(BlockNo(0)), "nothing was written");
            assert!(matches!(
                dev.read_block(BlockNo(0), &mut [0u8; 8]).unwrap_err(),
                ClioError::Internal(_)
            ));
        }

        pub(super) fn tail_rewrite_unsupported_on_pure_worm<M: Medium, G>(
            mk: fn(usize, u64) -> (WormDevice<M>, G),
        ) {
            let (dev, _g) = mk(16, 4);
            dev.append_block(BlockNo(0), &[0; 16]).unwrap();
            assert!(!dev.supports_tail_rewrite());
            assert!(matches!(
                dev.rewrite_tail(BlockNo(0), &[1; 16]).unwrap_err(),
                ClioError::Unsupported(_)
            ));
        }
    }

    /// Instantiates every rule test once per medium.
    macro_rules! on_both_media {
        ($($name:ident),+ $(,)?) => {
            mod mem_medium {
                $(#[test]
                fn $name() {
                    super::rule::$name(super::mem);
                })+
            }
            mod file_medium {
                $(#[test]
                fn $name() {
                    super::rule::$name(super::file);
                })+
            }
        };
    }

    on_both_media!(
        append_then_read_round_trips,
        append_only_is_enforced,
        reading_unwritten_or_out_of_range_fails,
        volume_fills_up,
        invalidation_burns_to_ones_and_persists,
        wrong_buffer_length_is_an_internal_error,
        tail_rewrite_unsupported_on_pure_worm,
    );

    #[test]
    fn scribble_extends_end_and_overwrites() {
        let dev = MemWormDevice::new(16, 8);
        dev.append_block(BlockNo(0), &[1; 16]).unwrap();
        dev.scribble(BlockNo(3), &[0xEE; 16]).unwrap();
        assert_eq!(dev.query_end(), Some(BlockNo(4)));
        assert_eq!(read(&dev, 3).unwrap(), [0xEE; 16]);
        // Block 0 is untouched, blocks 1–2 read as zero garbage.
        assert_eq!(read(&dev, 0).unwrap(), [1; 16]);
        assert_eq!(read(&dev, 1).unwrap(), [0; 16]);
        // The device carries on from the runaway head's position.
        dev.append_block(BlockNo(4), &[2; 16]).unwrap();
        assert_eq!(
            dev.scribble(BlockNo(8), &[0; 16]).unwrap_err(),
            ClioError::OutOfRange(BlockNo(8))
        );
    }

    #[test]
    fn file_contents_survive_reopen() {
        let tmp = TmpFile::new();
        {
            let dev = FileWormDevice::create(&tmp.0, 32, 10).unwrap();
            dev.append_block(BlockNo(0), &[0x5A; 32]).unwrap();
            dev.invalidate_block(BlockNo(0)).unwrap();
            dev.append_block(BlockNo(1), &[0x5B; 32]).unwrap();
            dev.sync().unwrap();
        }
        let dev = FileWormDevice::open(&tmp.0, 32, 10).unwrap();
        assert_eq!(dev.query_end(), Some(BlockNo(2)));
        assert_eq!(read(&dev, 0).unwrap(), [INVALIDATED_BYTE; 32]);
        assert_eq!(read(&dev, 1).unwrap(), [0x5B; 32]);
        // Append point carries on correctly.
        dev.append_block(BlockNo(2), &[0x6B; 32]).unwrap();
    }

    /// A short final write used to cost the whole volume: `open` refused
    /// any file that was not a whole number of blocks, and an append would
    /// have landed misaligned behind the torn bytes. §2.3.1 prices a torn
    /// tail at one block.
    #[test]
    fn regression_file_device_mounts_and_appends_past_a_torn_final_write() {
        let tmp = TmpFile::new();
        let mut image = vec![0xA0; 32];
        image.extend_from_slice(&[0xA1; 32]);
        image.extend_from_slice(&[0xEE; 16]);
        std::fs::write(&tmp.0, &image).unwrap();

        let dev = FileWormDevice::open(&tmp.0, 32, 10).unwrap();
        assert_eq!(dev.query_end(), Some(BlockNo(2)));
        assert!(!dev.is_written(BlockNo(2)).unwrap());
        assert_eq!(
            read(&dev, 2).unwrap_err(),
            ClioError::UnwrittenBlock(BlockNo(2))
        );
        // Mounting is not a write: the torn bytes are still there.
        assert_eq!(std::fs::read(&tmp.0).unwrap(), image);
        dev.append_block(BlockNo(2), &[0xA2; 32]).unwrap();
        drop(dev);

        let dev = FileWormDevice::open(&tmp.0, 32, 10).unwrap();
        assert_eq!(dev.query_end(), Some(BlockNo(3)));
        for (b, fill) in [0xA0, 0xA1, 0xA2].into_iter().enumerate() {
            assert_eq!(read(&dev, b as u64).unwrap(), [fill; 32], "block {b}");
        }
        assert_eq!(std::fs::read(&tmp.0).unwrap().len(), 3 * 32);
    }
}
