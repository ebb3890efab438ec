#![warn(missing_docs)]
//! On-disk formats for the Clio log service.
//!
//! This crate defines every byte that reaches a log device:
//!
//! - [`header`]: log entry headers. The minimal header costs 4 bytes per
//!   entry — 2 bytes of in-data header (4-bit form + 12-bit
//!   local-logfile-id) plus a 2-byte size slot in the end-of-block index —
//!   exactly the paper's §2.2 layout. Timestamped and "full" (client
//!   sequence number) forms extend it.
//! - [`block`]: the block layout of Figure 1 — entry records packed
//!   forwards, an index of entry sizes at the end of the block so a block
//!   can be scanned forwards *or* backwards, and a trailer carrying the
//!   mandatory first-entry timestamp (§2.1) and a CRC for corruption
//!   detection (§2.3.2). Entries larger than the free space are fragmented
//!   over multiple blocks (§2.1 footnote 7).
//! - [`entrymap_rec`]: the payload of entrymap log entries — one `N`-bit
//!   bitmap per active log file (§2.1).
//! - [`records`]: catalog log records (log-file attributes, §2.2), catalog
//!   checkpoints, and bad-block records (§2.3.2).
//! - [`volume_label`]: block 0 of every volume — volume identity, position
//!   in its volume sequence, geometry.

pub mod block;
pub mod entrymap_rec;
pub mod header;
pub mod records;
pub mod volume_label;

pub use block::{
    stamp_displaced, BlockBuilder, BlockFlags, BlockView, EntryRef, ParsedBlock, PushOutcome,
    TRAILER_SIZE,
};
pub use entrymap_rec::{EntrymapRecord, EntrymapRecordView};
pub use header::{EntryForm, EntryHeader, FragKind};
pub use records::{BadBlockRecord, CatalogRecord, LogFileAttrs};
pub use volume_label::VolumeLabel;
