//! The read interface the search algorithms run against.

use std::sync::Arc;

use clio_format::ParsedBlock;
use clio_types::Result;

/// Random read access to the written data blocks of a log volume.
///
/// Implemented by `clio-core` on top of the block cache and volume layer;
/// implemented in tests by simple in-memory vectors. Blocks are addressed in
/// data-block coordinates (label excluded), and the written region is the
/// prefix `[0, data_end)`.
///
/// The searches in this crate look at blocks only through
/// [`BlockSource::verified`]: a source decides where a block's CRC is
/// checked, and a source that holds verified blocks serves them without
/// checking again.
pub trait BlockSource {
    /// The entrymap degree `N` in effect for this volume.
    fn fanout(&self) -> usize;

    /// Number of data blocks written so far.
    fn data_end(&self) -> u64;

    /// Reads the raw image of data block `db`.
    ///
    /// Returns the bytes even if they will not parse (corrupt or
    /// invalidated blocks); parsing and classification is the caller's
    /// job. The `Arc` lets cache-backed sources hand out their cached
    /// image without copying.
    fn read(&self, db: u64) -> Result<Arc<Vec<u8>>>;

    /// Data block `db` as a verified block. The outer error is the source
    /// failing to read it, and propagates; the inner result is the
    /// block's §2.3.2 verdict — invalidated or corrupt — exactly as
    /// [`ParsedBlock::parse`] gives it, for the caller to classify.
    ///
    /// By default every call checks [`BlockSource::read`]'s image. A
    /// source that holds blocks already verified where they entered memory
    /// — built in memory, or checked once when read off the medium —
    /// hands them out as they are: the medium is write-once, so a block
    /// that passed its check stays good for as long as it is held.
    fn verified(&self, db: u64) -> Result<Result<ParsedBlock>> {
        Ok(ParsedBlock::parse(self.read(db)?))
    }
}

impl<T: BlockSource + ?Sized> BlockSource for &T {
    fn fanout(&self) -> usize {
        (**self).fanout()
    }

    fn data_end(&self) -> u64 {
        (**self).data_end()
    }

    fn read(&self, db: u64) -> Result<Arc<Vec<u8>>> {
        (**self).read(db)
    }

    fn verified(&self, db: u64) -> Result<Result<ParsedBlock>> {
        (**self).verified(db)
    }
}

/// An in-memory [`BlockSource`] over pre-built block images. Used by tests
/// and benchmarks in this crate.
pub struct VecSource {
    /// The entrymap degree.
    pub fanout: usize,
    /// One image per written data block, handed out without copying.
    pub blocks: Vec<Arc<Vec<u8>>>,
}

impl BlockSource for VecSource {
    fn fanout(&self) -> usize {
        self.fanout
    }

    fn data_end(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn read(&self, db: u64) -> Result<Arc<Vec<u8>>> {
        self.blocks
            .get(db as usize)
            .cloned()
            .ok_or(clio_types::ClioError::UnwrittenBlock(clio_types::BlockNo(
                db,
            )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_reads_prefix() {
        let src = VecSource {
            fanout: 4,
            blocks: vec![Arc::new(vec![1]), Arc::new(vec![2])],
        };
        assert_eq!(src.data_end(), 2);
        assert_eq!(*src.read(1).unwrap(), vec![2]);
        assert!(src.read(2).is_err());
        // Borrowed sources delegate.
        let r = &src;
        assert_eq!(BlockSource::fanout(&r), 4);
    }
}
