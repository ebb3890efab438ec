//! The two storage media under every base device: a `Vec<u8>` and a host
//! file.
//!
//! This is the one place in the device layer allowed to touch raw
//! host-file primitives. Everything position- or extent-changing
//! (`OpenOptions`, `seek`, `set_len`, positioned writes) lives in this file
//! so the write-once discipline of [`crate::WormDevice`], built on top, can
//! be audited in one screen of code; the `worm-writes` rule in `clio-lint`
//! rejects those primitives anywhere else under `crates/device/src`.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// A flat run of bytes with no rule of its own. [`crate::WormDevice`] and
/// [`crate::store::Store`] decide which offsets a caller may touch; a
/// medium is only ever handed offsets they have checked.
pub(crate) trait Medium: Send {
    /// Bytes the medium holds.
    fn extent(&self) -> io::Result<u64>;

    /// Reads exactly `buf.len()` bytes at absolute offset `off`.
    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Overwrites `data.len()` bytes the medium already holds at `off`.
    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<()>;

    /// Writes `blocks` back to back starting at `off`, which is at most one
    /// block short of the extent; the medium ends where they end.
    fn append(&mut self, off: u64, blocks: &[&[u8]]) -> io::Result<()>;

    /// Forces what was written to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

impl Medium for Vec<u8> {
    fn extent(&self) -> io::Result<u64> {
        Ok(self.len() as u64)
    }

    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        let off = off as usize;
        buf.copy_from_slice(&self[off..off + buf.len()]);
        Ok(())
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<()> {
        let off = off as usize;
        self[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn append(&mut self, off: u64, blocks: &[&[u8]]) -> io::Result<()> {
        self.truncate(off as usize);
        for b in blocks {
            self.extend_from_slice(b);
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Medium for File {
    fn extent(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn read_at(&mut self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        self.seek(SeekFrom::Start(off))?;
        self.read_exact(buf)
    }

    fn write_at(&mut self, off: u64, data: &[u8]) -> io::Result<()> {
        self.seek(SeekFrom::Start(off))?;
        self.write_all(data)
    }

    /// One syscall for the whole batch — the physical write the
    /// group-commit path amortises over every logical append in it.
    fn append(&mut self, off: u64, blocks: &[&[u8]]) -> io::Result<()> {
        self.write_at(off, &blocks.concat())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// Opens `path` read-write, creating or truncating it.
pub(crate) fn create_rw(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

/// Opens an existing `path` read-write.
pub(crate) fn open_rw(path: &Path) -> io::Result<File> {
    OpenOptions::new().read(true).write(true).open(path)
}

/// Extends (or shrinks) the file to exactly `len` bytes.
pub(crate) fn set_extent(file: &File, len: u64) -> io::Result<()> {
    file.set_len(len)
}
