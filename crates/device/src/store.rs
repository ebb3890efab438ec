//! Rewriteable block stores.
//!
//! The conventional file server that Clio extends (§2) — and the
//! indirect-block file system baseline of §1 — run on ordinary rewriteable
//! disks. [`BlockStore`] is that abstraction: fixed-size blocks, random read
//! *and write* access.

use std::fs::File;
use std::path::Path;

use clio_testkit::lockdep;
use clio_testkit::sync::Mutex;

use clio_types::{BlockNo, ClioError, Result};

use crate::medium::{self, Medium};
use crate::traits::check_len;

/// A rewriteable, block-oriented storage device (a conventional disk).
pub trait BlockStore: Send + Sync {
    /// The block size in bytes.
    fn block_size(&self) -> usize;

    /// Total number of blocks.
    fn capacity_blocks(&self) -> u64;

    /// Reads block `block` into `buf`.
    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()>;

    /// Writes block `block` from `data` (any block, any number of times).
    fn write_block(&self, block: BlockNo, data: &[u8]) -> Result<()>;

    /// Flushes to stable storage.
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

impl<T: BlockStore + ?Sized> BlockStore for std::sync::Arc<T> {
    fn block_size(&self) -> usize {
        (**self).block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        (**self).capacity_blocks()
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        (**self).read_block(block, buf)
    }

    fn write_block(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        (**self).write_block(block, data)
    }

    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
}

/// A rewriteable block store over one of the two media: the bounds and
/// buffer-length check, and nothing else, stands between a caller and any
/// block.
pub struct Store<M> {
    block_size: usize,
    capacity: u64,
    medium: Mutex<M>,
}

/// An in-memory rewriteable block store.
pub type MemBlockStore = Store<Vec<u8>>;

/// A host-file-backed rewriteable block store.
pub type FileBlockStore = Store<File>;

impl MemBlockStore {
    /// Creates a zero-filled store of `capacity` blocks.
    #[must_use]
    pub fn new(block_size: usize, capacity: u64) -> MemBlockStore {
        let medium = vec![0; block_size * capacity as usize];
        Self::over(medium, "device.store.mem", block_size, capacity)
    }
}

impl FileBlockStore {
    /// Creates (or truncates) a store file of the full capacity.
    pub fn create<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        capacity: u64,
    ) -> Result<FileBlockStore> {
        let file = medium::create_rw(path.as_ref())?;
        medium::set_extent(&file, block_size as u64 * capacity)?;
        Ok(Self::over(file, "device.store.file", block_size, capacity))
    }

    /// Opens an existing store file.
    pub fn open<P: AsRef<Path>>(
        path: P,
        block_size: usize,
        capacity: u64,
    ) -> Result<FileBlockStore> {
        let file = medium::open_rw(path.as_ref())?;
        Ok(Self::over(file, "device.store.file", block_size, capacity))
    }
}

impl<M> Store<M> {
    fn over(medium: M, lock_class: &'static str, block_size: usize, capacity: u64) -> Store<M> {
        Store {
            block_size,
            capacity,
            medium: Mutex::with_class(medium, lock_class),
        }
    }

    /// The byte offset of `block`, for a buffer of `len` bytes.
    fn check(&self, block: BlockNo, len: usize) -> Result<u64> {
        if block.0 >= self.capacity {
            return Err(ClioError::OutOfRange(block));
        }
        check_len(self.block_size, len)?;
        Ok(block.0 * self.block_size as u64)
    }
}

impl<M: Medium> BlockStore for Store<M> {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        let off = self.check(block, buf.len())?;
        self.medium.lock().read_at(off, buf)?;
        Ok(())
    }

    fn write_block(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        lockdep::assert_no_locks_held("Store::write_block");
        let off = self.check(block, data.len())?;
        self.medium.lock().write_at(off, data)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        lockdep::assert_no_locks_held("Store::sync");
        self.medium.lock().sync()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_read_write() {
        let st = MemBlockStore::new(32, 4);
        st.write_block(BlockNo(2), &[9u8; 32]).unwrap();
        st.write_block(BlockNo(2), &[10u8; 32]).unwrap(); // rewriteable
        let mut buf = vec![0u8; 32];
        st.read_block(BlockNo(2), &mut buf).unwrap();
        assert_eq!(buf, vec![10u8; 32]);
        st.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 32]); // zero-filled initially
    }

    #[test]
    fn mem_store_bounds() {
        let st = MemBlockStore::new(32, 4);
        let mut buf = vec![0u8; 32];
        assert!(st.read_block(BlockNo(4), &mut buf).is_err());
        assert!(st.write_block(BlockNo(4), &buf).is_err());
        assert!(st.write_block(BlockNo(0), &[0u8; 31]).is_err());
    }

    #[test]
    fn file_store_round_trip() {
        let mut p = std::env::temp_dir();
        p.push(format!("clio-block-store-{}", std::process::id()));
        let st = FileBlockStore::create(&p, 64, 8).unwrap();
        st.write_block(BlockNo(7), &[0x42; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        st.read_block(BlockNo(7), &mut buf).unwrap();
        assert_eq!(buf, vec![0x42; 64]);
        drop(st);
        let st = FileBlockStore::open(&p, 64, 8).unwrap();
        st.read_block(BlockNo(7), &mut buf).unwrap();
        assert_eq!(buf, vec![0x42; 64]);
        std::fs::remove_file(&p).unwrap();
    }
}
