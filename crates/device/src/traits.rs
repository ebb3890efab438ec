//! The write-once log device abstraction.

use std::sync::Arc;

use clio_types::{BlockNo, ClioError, Result};

/// A shared, thread-safe handle to a log device.
pub type SharedDevice = Arc<dyn LogDevice>;

/// A non-volatile, block-oriented storage device that supports random access
/// for reading and append-only write access (§2).
///
/// All methods take `&self`; implementations use interior mutability so a
/// device can be shared between the writer, the block cache and recovery
/// code. Blocks are fixed-size; `append_block` may only ever write the first
/// unwritten block, which keeps the written portion a prefix of the device.
///
/// Two operations extend the strict WORM model, both with physical
/// justification in the paper:
///
/// - [`LogDevice::invalidate_block`] burns a block to all 1s. On real
///   write-once media this is always possible, because bits only transition
///   one way; Clio uses it to invalidate corrupted blocks (§2.3.2).
/// - [`LogDevice::rewrite_tail`] rewrites the *last written* block only.
///   It is unsupported on pure WORM devices and provided by
///   [`crate::RamTailDevice`], which models the battery-backed RAM the paper
///   proposes for the tail of the log (§2.3.1).
pub trait LogDevice: Send + Sync {
    /// The block size in bytes. Constant for the life of the device.
    fn block_size(&self) -> usize;

    /// Total number of blocks on the medium.
    fn capacity_blocks(&self) -> u64;

    /// The number of written blocks, if the device can be queried for it
    /// directly.
    ///
    /// Some drives cannot report their write position; recovery then finds
    /// the end by binary search over [`LogDevice::is_written`] (§2.3.1:
    /// "if this block cannot be found by directly querying the device, then
    /// binary search is used").
    fn query_end(&self) -> Option<BlockNo>;

    /// Whether the given block has been written (readable without error
    /// other than corruption). Used by the binary-search end locator.
    fn is_written(&self, block: BlockNo) -> Result<bool>;

    /// Appends one block of exactly [`LogDevice::block_size`] bytes.
    ///
    /// `expected` must equal the current append point (the first unwritten
    /// block); otherwise [`ClioError::NotAppendOnly`] is returned. This is
    /// the software analogue of a drive "physically incapable of writing
    /// anywhere except at the end of the written portion" (§2).
    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()>;

    /// Appends a batch of blocks starting at the current append point.
    ///
    /// `expected` must equal the append point exactly as for
    /// [`LogDevice::append_block`]; the blocks land contiguously in order.
    /// The default implementation loops over `append_block`, so a crash or
    /// fault mid-batch can leave any prefix of the batch written — callers
    /// that need to know how much landed must re-locate the end. Native
    /// implementations may write the whole batch in one device operation
    /// (one syscall + one sync for the file device), which is what the
    /// group-commit write path exploits.
    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        let mut at = expected;
        for b in blocks {
            self.append_block(at, b)?;
            at = at.next();
        }
        Ok(())
    }

    /// Reads a written block into `buf` (length [`LogDevice::block_size`]).
    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()>;

    /// Burns a block to all 1s, marking it invalid (§2.3.2).
    ///
    /// Unlike appends this is permitted on *any* block at or before the
    /// append point, because on write-once media turning remaining bits on
    /// is always physically possible.
    fn invalidate_block(&self, block: BlockNo) -> Result<()>;

    /// Rewrites the last written block in place.
    ///
    /// Only devices with rewriteable tail storage support this; the default
    /// implementation reports [`ClioError::Unsupported`].
    fn rewrite_tail(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        let _ = (block, data);
        Err(ClioError::Unsupported("tail rewrite on pure WORM device"))
    }

    /// Whether [`LogDevice::rewrite_tail`] is available.
    fn supports_tail_rewrite(&self) -> bool {
        false
    }

    /// Forces buffered state to stable storage.
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// Locates the append point (first unwritten block) of a device.
///
/// Uses [`LogDevice::query_end`] when available, otherwise binary search over
/// the written-prefix property, costing `O(log2 capacity)` probes (§2.3.1).
/// Returns the number of probes performed alongside the end, so recovery
/// benchmarks can account for them.
pub fn locate_end(dev: &dyn LogDevice) -> Result<(BlockNo, u64)> {
    if let Some(end) = dev.query_end() {
        return Ok((end, 0));
    }
    // The written blocks form a prefix [0, end). Find the least unwritten
    // block by binary search.
    let mut probes = 0u64;
    let (mut lo, mut hi) = (0u64, dev.capacity_blocks());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if dev.is_written(BlockNo(mid))? {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok((BlockNo(lo), probes))
}

/// Validates a buffer length against the device block size.
///
/// Shared helper for implementations.
pub(crate) fn check_len(dev_block_size: usize, len: usize) -> Result<()> {
    if len != dev_block_size {
        return Err(ClioError::Internal(format!(
            "buffer of {len} bytes does not match block size {dev_block_size}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemWormDevice;

    #[test]
    fn locate_end_with_query() {
        let dev = MemWormDevice::new(64, 100);
        let blk = vec![1u8; 64];
        for i in 0..5 {
            dev.append_block(BlockNo(i), &blk).unwrap();
        }
        let (end, probes) = locate_end(&dev).unwrap();
        assert_eq!(end, BlockNo(5));
        assert_eq!(probes, 0);
    }

    #[test]
    fn locate_end_by_binary_search() {
        let dev = MemWormDevice::new(64, 1000).without_end_query();
        let blk = vec![2u8; 64];
        for i in 0..137 {
            dev.append_block(BlockNo(i), &blk).unwrap();
        }
        let (end, probes) = locate_end(&dev).unwrap();
        assert_eq!(end, BlockNo(137));
        assert!(probes > 0 && probes <= 10, "probes = {probes}");
    }

    #[test]
    fn locate_end_empty_and_full() {
        let dev = MemWormDevice::new(64, 8).without_end_query();
        assert_eq!(locate_end(&dev).unwrap().0, BlockNo(0));
        let blk = vec![0u8; 64];
        for i in 0..8 {
            dev.append_block(BlockNo(i), &blk).unwrap();
        }
        assert_eq!(locate_end(&dev).unwrap().0, BlockNo(8));
    }
}
