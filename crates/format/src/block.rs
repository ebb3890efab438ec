//! The log block layout (Figure 1).
//!
//! ```text
//! +----------+----------+-----+------------+---------+----+----+----+---------+
//! | entry 1  | entry 2  | ... |  free (0s) | ... s3    s2   s1 | trailer      |
//! +----------+----------+-----+------------+-------------------+--------------+
//!                                            index (entry sizes,  magic, flags,
//!                                            growing downwards)   count, first
//!                                                                 timestamp, CRC
//! ```
//!
//! Entry records are packed from the front; the *index* of 16-bit entry
//! sizes grows backwards from the trailer, so a block can be scanned either
//! forwards (accumulating sizes) or backwards (walking the index) — "this
//! makes it easy to scan a disk block, either forwards or backwards, to
//! examine the log entries that it contains" (§2.1).
//!
//! The trailer carries the mandatory timestamp of the first entry in the
//! block (§2.1: "a header timestamp is mandatory for the first log entry in
//! each block, so the search succeeds to a resolution of at least a single
//! block") and a CRC32, which is how this implementation detects the
//! garbage blocks §2.3.2 assumes detectable.

use std::sync::Arc;

use clio_types::crc::crc32;
use clio_types::{ClioError, Result, Timestamp, INVALIDATED_BYTE, MAX_BLOCK_SIZE, MIN_BLOCK_SIZE};

use crate::header::{EntryHeader, FragKind};

/// Bytes of fixed trailer at the end of every block.
pub const TRAILER_SIZE: usize = 18;

/// Magic number identifying a Clio log block.
const MAGIC: u16 = 0xC110;

/// Current block format version.
const VERSION: u8 = 1;

/// Per-block flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockFlags {
    /// The block contains at least one entrymap log entry. A locator hint
    /// only; the source of truth is the entries themselves.
    pub has_entrymap: bool,
    /// The first record continues an entry fragmented from the previous
    /// block.
    pub continues_prev: bool,
    /// The block was sealed before it was full by a forced (synchronous)
    /// write on a pure write-once device (§2.3.1).
    pub sealed_early: bool,
    /// How many block addresses past the one it was first given this
    /// image landed: append verification found the blocks before it
    /// written with garbage, invalidated them and re-placed the image
    /// (§2.3.2). 0 for a block written in place. This is what lets a
    /// reader holding an address into an invalidated block tell its
    /// re-placement from an unrelated block that merely follows it.
    pub displaced_by: u8,
}

impl BlockFlags {
    /// The farthest displacement the flags byte can record.
    pub const MAX_DISPLACED: u8 = 7;

    fn to_byte(self) -> u8 {
        u8::from(self.has_entrymap)
            | u8::from(self.continues_prev) << 1
            | u8::from(self.sealed_early) << 2
            | (self.displaced_by & Self::MAX_DISPLACED) << 3
    }

    fn from_byte(b: u8) -> BlockFlags {
        BlockFlags {
            has_entrymap: b & 1 != 0,
            continues_prev: b & 2 != 0,
            sealed_early: b & 4 != 0,
            displaced_by: (b >> 3) & Self::MAX_DISPLACED,
        }
    }
}

/// Builds one block in memory.
///
/// The builder is the unit the log writer keeps for the currently open
/// block; [`BlockBuilder::finish`] produces the exact device image.
#[derive(Debug, Clone)]
pub struct BlockBuilder {
    block_size: usize,
    first_ts: Timestamp,
    flags: BlockFlags,
    data: Vec<u8>,
    sizes: Vec<u16>,
}

/// The result of attempting to add a record to a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The record was written; this is its slot within the block.
    Written(u16),
    /// The block cannot fit the record. The writer uses this to fragment
    /// large entries.
    NoSpace {
        /// Payload bytes that *would* fit alongside this header (0 if not
        /// even the header fits).
        payload_room: usize,
    },
}

impl BlockBuilder {
    /// Starts an empty block.
    ///
    /// `first_ts` is the service time when the block was opened; it becomes
    /// the block's mandatory first-entry timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is below [`MIN_BLOCK_SIZE`] or above
    /// [`MAX_BLOCK_SIZE`]; geometry is fixed at volume creation, so a bad
    /// size is a configuration bug.
    #[must_use]
    pub fn new(block_size: usize, first_ts: Timestamp) -> BlockBuilder {
        assert!(
            (MIN_BLOCK_SIZE..=MAX_BLOCK_SIZE).contains(&block_size),
            "unsupported block size {block_size}"
        );
        BlockBuilder {
            block_size,
            first_ts,
            flags: BlockFlags::default(),
            data: Vec::new(),
            sizes: Vec::new(),
        }
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn count(&self) -> u16 {
        self.sizes.len() as u16
    }

    /// Whether no records have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The block's first-entry timestamp.
    #[must_use]
    pub fn first_ts(&self) -> Timestamp {
        self.first_ts
    }

    /// Bytes of record data (headers + payloads) written so far.
    #[must_use]
    pub fn data_len(&self) -> usize {
        self.data.len()
    }

    /// Mutable access to the block flags.
    pub fn flags_mut(&mut self) -> &mut BlockFlags {
        &mut self.flags
    }

    /// Bytes of payload that would fit for a record whose header encodes to
    /// `header_len` bytes (accounting for the record's index slot).
    #[must_use]
    pub fn payload_room(&self, header_len: usize) -> usize {
        let fixed = self.data.len() + TRAILER_SIZE + 2 * (self.sizes.len() + 1);
        self.block_size
            .saturating_sub(fixed)
            .saturating_sub(header_len)
    }

    /// Appends a record. Fails (without modifying the block) if it does not
    /// fit; see [`PushOutcome::NoSpace`].
    pub fn push(&mut self, header: &EntryHeader, payload: &[u8]) -> PushOutcome {
        let room = self.payload_room(header.encoded_len());
        // `payload_room` saturates at 0 when even the header cannot fit, so
        // check the exact byte budget as well: a header-only record is
        // acceptable only if the header genuinely fits.
        let fixed = self.data.len() + TRAILER_SIZE + 2 * (self.sizes.len() + 1);
        if payload.len() > room || fixed + header.encoded_len() + payload.len() > self.block_size {
            return PushOutcome::NoSpace { payload_room: room };
        }
        let slot = self.sizes.len() as u16;
        let before = self.data.len();
        header.encode(&mut self.data);
        self.data.extend_from_slice(payload);
        let rec_len = self.data.len() - before;
        self.sizes.push(rec_len as u16);
        if matches!(header.frag, FragKind::Continuation { .. }) && slot == 0 {
            self.flags.continues_prev = true;
        }
        PushOutcome::Written(slot)
    }

    /// The finished image as a verified block. The CRC was just computed
    /// over exactly these bytes, so it is not checked again: this and
    /// [`ParsedBlock::parse`] are the only sources of a [`ParsedBlock`]
    /// (a [`ParsedBlock::displaced`] re-stamp derives from one).
    #[must_use]
    pub fn finish_parsed(&self) -> ParsedBlock {
        ParsedBlock {
            image: Arc::new(self.finish()),
            count: self.count(),
            // Through the byte, as a reader decodes it.
            flags: BlockFlags::from_byte(self.flags.to_byte()),
            first_ts: self.first_ts,
        }
    }

    /// Serializes the block to its exact device image.
    pub fn finish(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.block_size];
        out[..self.data.len()].copy_from_slice(&self.data);
        // Size index: entry i's size at block_size - TRAILER - 2*(i+1).
        for (i, &s) in self.sizes.iter().enumerate() {
            let off = self.block_size - TRAILER_SIZE - 2 * (i + 1);
            out[off..off + 2].copy_from_slice(&s.to_le_bytes());
        }
        let t = self.block_size - TRAILER_SIZE;
        out[t..t + 2].copy_from_slice(&MAGIC.to_le_bytes());
        out[t + 2] = VERSION;
        out[t + 3] = self.flags.to_byte();
        out[t + 4..t + 6].copy_from_slice(&(self.sizes.len() as u16).to_le_bytes());
        out[t + 6..t + 14].copy_from_slice(&self.first_ts.0.to_le_bytes());
        let crc = crc32(&out[..self.block_size - 4]);
        out[self.block_size - 4..].copy_from_slice(&crc.to_le_bytes());
        out
    }
}

/// Re-stamps a finished block image as landing `by` block addresses past
/// the one it was built for (see [`BlockFlags::displaced_by`]); entries
/// and slots are untouched, only the flags byte and the CRC change.
///
/// # Panics
///
/// Panics if `by` exceeds [`BlockFlags::MAX_DISPLACED`] or `image` is
/// shorter than a trailer — both are writer bugs.
fn stamp_displaced(image: &mut [u8], by: u8) {
    assert!(by <= BlockFlags::MAX_DISPLACED, "displacement {by} too far");
    let n = image.len();
    let mut flags = BlockFlags::from_byte(image[n - TRAILER_SIZE + 3]);
    flags.displaced_by = by;
    image[n - TRAILER_SIZE + 3] = flags.to_byte();
    let crc = crc32(&image[..n - 4]);
    image[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

/// A decoded reference to one entry record inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// The record's slot within the block (0-based).
    pub slot: u16,
    /// The decoded header.
    pub header: EntryHeader,
    /// The record's payload bytes (one fragment's worth if fragmented).
    pub payload: &'a [u8],
}

/// A validated, read-only view of a block image.
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    bytes: &'a [u8],
    count: u16,
    flags: BlockFlags,
    first_ts: Timestamp,
}

impl<'a> BlockView<'a> {
    /// Validates and wraps a block image.
    ///
    /// Distinguishes the three §2.3.2 cases: a good block, an *invalidated*
    /// block (burned to all 1s → [`ClioError::InvalidatedBlock`] with block
    /// number 0 as a placeholder the caller rewrites), and a *corrupt*
    /// block (bad magic, version, CRC, or inconsistent geometry).
    pub fn parse(bytes: &'a [u8]) -> Result<BlockView<'a>> {
        use clio_types::BlockNo;
        let n = bytes.len();
        if n < MIN_BLOCK_SIZE {
            return Err(ClioError::BadRecord("block too small"));
        }
        if bytes.iter().all(|&b| b == INVALIDATED_BYTE) {
            return Err(ClioError::InvalidatedBlock(BlockNo(0)));
        }
        let t = n - TRAILER_SIZE;
        let magic = u16::from_le_bytes([bytes[t], bytes[t + 1]]);
        if magic != MAGIC || bytes[t + 2] != VERSION {
            return Err(ClioError::CorruptBlock(BlockNo(0)));
        }
        let crc_stored = u32::from_le_bytes(bytes[n - 4..].try_into().expect("4 bytes"));
        if crc32(&bytes[..n - 4]) != crc_stored {
            return Err(ClioError::CorruptBlock(BlockNo(0)));
        }
        let count = u16::from_le_bytes([bytes[t + 4], bytes[t + 5]]);
        // Geometry sanity: the index must fit.
        if usize::from(count) * 2 + TRAILER_SIZE > n {
            return Err(ClioError::CorruptBlock(BlockNo(0)));
        }
        let first_ts = Timestamp(u64::from_le_bytes(
            bytes[t + 6..t + 14].try_into().expect("8 bytes"),
        ));
        Ok(BlockView {
            bytes,
            count,
            flags: BlockFlags::from_byte(bytes[t + 3]),
            first_ts,
        })
    }

    /// Whether an image is an invalidated (all-1s) block.
    #[must_use]
    pub fn is_invalidated(bytes: &[u8]) -> bool {
        bytes.iter().all(|&b| b == INVALIDATED_BYTE)
    }

    /// Number of entry records in the block.
    #[must_use]
    pub fn count(&self) -> u16 {
        self.count
    }

    /// The block flags.
    #[must_use]
    pub fn flags(&self) -> BlockFlags {
        self.flags
    }

    /// The mandatory first-entry timestamp.
    #[must_use]
    pub fn first_ts(&self) -> Timestamp {
        self.first_ts
    }

    /// The record size (header + payload) of `slot`, from the index.
    pub fn record_size(&self, slot: u16) -> Result<usize> {
        if slot >= self.count {
            return Err(ClioError::BadRecord("slot out of range"));
        }
        let off = self.bytes.len() - TRAILER_SIZE - 2 * (usize::from(slot) + 1);
        Ok(usize::from(u16::from_le_bytes([
            self.bytes[off],
            self.bytes[off + 1],
        ])))
    }

    /// Decodes the record in `slot`.
    ///
    /// Cost is O(slot) within the block: offsets accumulate from the size
    /// index, mirroring the paper's "reads this block and searches it
    /// sequentially for the desired entry" (§2.1).
    pub fn entry(&self, slot: u16) -> Result<EntryRef<'a>> {
        let mut off = 0usize;
        for s in 0..slot {
            off += self.record_size(s)?;
        }
        let size = self.record_size(slot)?;
        if off + size > self.bytes.len() - TRAILER_SIZE - 2 * usize::from(self.count) {
            return Err(ClioError::BadRecord("record overruns data area"));
        }
        let rec = &self.bytes[off..off + size];
        let (header, hlen) = EntryHeader::decode(rec)?;
        Ok(EntryRef {
            slot,
            header,
            payload: &rec[hlen..],
        })
    }

    /// Iterates over all records, front to back.
    pub fn entries(&self) -> impl Iterator<Item = Result<EntryRef<'a>>> + '_ {
        self.entries_from(0)
    }

    /// Iterates over the records from `first` on, front to back. The
    /// records before `first` are stepped over by size alone (the index),
    /// not decoded — a scan resuming mid-block pays for what it returns.
    pub fn entries_from(&self, first: u16) -> impl Iterator<Item = Result<EntryRef<'a>>> + '_ {
        let data_end = self.bytes.len() - TRAILER_SIZE - 2 * usize::from(self.count);
        let first = first.min(self.count);
        // In-range slots, so `record_size` cannot fail; an oversized sum
        // fails the bounds check of the first record decoded.
        let mut off: usize = (0..first).filter_map(|s| self.record_size(s).ok()).sum();
        (first..self.count).map(move |slot| {
            let size = self.record_size(slot)?;
            if off + size > data_end {
                return Err(ClioError::BadRecord("record overruns data area"));
            }
            let rec = &self.bytes[off..off + size];
            off += size;
            let (header, hlen) = EntryHeader::decode(rec)?;
            Ok(EntryRef {
                slot,
                header,
                payload: &rec[hlen..],
            })
        })
    }

    /// Iterates backwards (last record first) using the size index, the
    /// access pattern of backward log scans.
    pub fn entries_rev(&self) -> impl Iterator<Item = Result<EntryRef<'a>>> + '_ {
        // One pass over the index yields every record's offset, so each
        // reverse step decodes in O(1) instead of re-accumulating.
        let mut offsets = Vec::with_capacity(usize::from(self.count));
        let mut off = 0usize;
        let mut ok = true;
        for s in 0..self.count {
            offsets.push(off);
            match self.record_size(s) {
                Ok(sz) => off += sz,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        let data_end = self.bytes.len() - TRAILER_SIZE - 2 * usize::from(self.count);
        let view = *self;
        (0..self.count).rev().map(move |slot| {
            if !ok {
                return Err(ClioError::BadRecord("bad size index"));
            }
            let start = offsets[usize::from(slot)];
            let size = view.record_size(slot)?;
            if start + size > data_end {
                return Err(ClioError::BadRecord("record overruns data area"));
            }
            let rec = &view.bytes[start..start + size];
            let (header, hlen) = EntryHeader::decode(rec)?;
            Ok(EntryRef {
                slot,
                header,
                payload: &rec[hlen..],
            })
        })
    }
}

/// An owned block image that has passed [`BlockView::parse`] — magic,
/// version, CRC and index geometry — together with the trailer fields
/// that check decoded.
///
/// Only [`ParsedBlock::parse`] — the check — and the builder
/// ([`BlockBuilder::finish_parsed`], and [`ParsedBlock::displaced`] of a
/// block so obtained), which computed the CRC over exactly these bytes,
/// construct one; nothing trusts bytes from elsewhere. So holding one *is*
/// the proof that the image was verified: a reader that keeps it can hand
/// out [`BlockView`]s of the same bytes any number of times without
/// checking them again. The image is immutable behind its `Arc`; what a
/// holder must still decide for itself is whether the *address* it read
/// the image from can come to hold different bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedBlock {
    image: Arc<Vec<u8>>,
    count: u16,
    flags: BlockFlags,
    first_ts: Timestamp,
}

impl ParsedBlock {
    /// Validates `image` exactly as [`BlockView::parse`] does and keeps it.
    pub fn parse(image: Arc<Vec<u8>>) -> Result<ParsedBlock> {
        let BlockView {
            count,
            flags,
            first_ts,
            ..
        } = BlockView::parse(&image)?;
        Ok(ParsedBlock {
            image,
            count,
            flags,
            first_ts,
        })
    }

    /// A view of the verified image. O(1): nothing is re-read.
    #[must_use]
    pub fn view(&self) -> BlockView<'_> {
        BlockView {
            bytes: &self.image,
            count: self.count,
            flags: self.flags,
            first_ts: self.first_ts,
        }
    }

    /// The verified image, exactly the bytes a device holds for it.
    #[must_use]
    pub fn image(&self) -> &Arc<Vec<u8>> {
        &self.image
    }

    /// This block re-stamped as landing `by` block addresses past the one
    /// it was built for (see [`BlockFlags::displaced_by`]): a new image
    /// whose flags byte and CRC the stamp rewrote, so it is verified by
    /// construction like the one it came from.
    ///
    /// # Panics
    ///
    /// Panics if `by` exceeds [`BlockFlags::MAX_DISPLACED`] — a writer bug.
    #[must_use]
    pub fn displaced(&self, by: u8) -> ParsedBlock {
        let mut image = self.image.as_ref().clone();
        stamp_displaced(&mut image, by);
        ParsedBlock {
            image: Arc::new(image),
            count: self.count,
            flags: BlockFlags {
                displaced_by: by,
                ..self.flags
            },
            first_ts: self.first_ts,
        }
    }
}

#[cfg(test)]
mod tests {
    use clio_types::{LogFileId, SeqNo};

    use super::*;
    use crate::header::EntryForm;

    fn hdr(id: u16) -> EntryHeader {
        EntryHeader::new(LogFileId(id), EntryForm::Minimal, None, None)
    }

    #[test]
    fn build_and_parse_round_trip() {
        let mut b = BlockBuilder::new(256, Timestamp(1000));
        assert_eq!(b.push(&hdr(8), b"alpha"), PushOutcome::Written(0));
        assert_eq!(b.push(&hdr(9), b"beta"), PushOutcome::Written(1));
        let full = EntryHeader::new(
            LogFileId(10),
            EntryForm::Full,
            Some(Timestamp(2000)),
            Some(SeqNo(7)),
        );
        assert_eq!(b.push(&full, b"gamma"), PushOutcome::Written(2));
        let img = b.finish();
        assert_eq!(img.len(), 256);

        let v = BlockView::parse(&img).unwrap();
        assert_eq!(v.count(), 3);
        assert_eq!(v.first_ts(), Timestamp(1000));
        let e0 = v.entry(0).unwrap();
        assert_eq!(e0.header.id, LogFileId(8));
        assert_eq!(e0.payload, b"alpha");
        let e2 = v.entry(2).unwrap();
        assert_eq!(e2.header.timestamp, Some(Timestamp(2000)));
        assert_eq!(e2.header.seqno, Some(SeqNo(7)));
        assert_eq!(e2.payload, b"gamma");
    }

    #[test]
    fn forward_and_backward_scans_agree() {
        let mut b = BlockBuilder::new(512, Timestamp(5));
        for i in 0..10u16 {
            let payload = vec![i as u8; usize::from(i) * 3];
            assert!(matches!(
                b.push(&hdr(8 + i), &payload),
                PushOutcome::Written(_)
            ));
        }
        let img = b.finish();
        let v = BlockView::parse(&img).unwrap();
        let fwd: Vec<_> = v.entries().map(|e| e.unwrap().header.id).collect();
        let mut bwd: Vec<_> = v.entries_rev().map(|e| e.unwrap().header.id).collect();
        bwd.reverse();
        assert_eq!(fwd, bwd);
        assert_eq!(fwd.len(), 10);
    }

    #[test]
    fn no_space_reports_remaining_room() {
        let mut b = BlockBuilder::new(MIN_BLOCK_SIZE, Timestamp(0));
        let room = b.payload_room(2);
        // A payload exactly filling the room fits...
        assert!(matches!(
            b.push(&hdr(8), &vec![0u8; room]),
            PushOutcome::Written(0)
        ));
        // ...and then nothing else does.
        match b.push(&hdr(8), b"x") {
            PushOutcome::NoSpace { payload_room } => assert_eq!(payload_room, 0),
            other => panic!("expected NoSpace, got {other:?}"),
        }
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn crc_detects_corruption() {
        let mut b = BlockBuilder::new(256, Timestamp(0));
        b.push(&hdr(8), b"data");
        let mut img = b.finish();
        assert!(BlockView::parse(&img).is_ok());
        img[10] ^= 0x40;
        assert!(matches!(
            BlockView::parse(&img).unwrap_err(),
            ClioError::CorruptBlock(_)
        ));
    }

    #[test]
    fn invalidated_block_is_distinguished_from_corrupt() {
        let img = vec![INVALIDATED_BYTE; 256];
        assert!(BlockView::is_invalidated(&img));
        assert!(matches!(
            BlockView::parse(&img).unwrap_err(),
            ClioError::InvalidatedBlock(_)
        ));
        let garbage = vec![0x3Cu8; 256];
        assert!(matches!(
            BlockView::parse(&garbage).unwrap_err(),
            ClioError::CorruptBlock(_)
        ));
    }

    #[test]
    fn empty_block_is_valid() {
        let b = BlockBuilder::new(128, Timestamp(42));
        let img = b.finish();
        let v = BlockView::parse(&img).unwrap();
        assert_eq!(v.count(), 0);
        assert_eq!(v.first_ts(), Timestamp(42));
        assert!(v.entries().next().is_none());
    }

    #[test]
    fn continuation_first_sets_flag() {
        let mut b = BlockBuilder::new(256, Timestamp(0));
        let cont = EntryHeader {
            id: LogFileId(8),
            form: EntryForm::Minimal,
            frag: FragKind::Continuation { chain: 5 },
            timestamp: None,
            seqno: None,
        };
        b.push(&cont, b"rest of entry");
        let img = b.finish();
        let v = BlockView::parse(&img).unwrap();
        assert!(v.flags().continues_prev);
        assert_eq!(
            v.entry(0).unwrap().header.frag,
            FragKind::Continuation { chain: 5 }
        );
    }

    #[test]
    fn flags_round_trip() {
        let mut b = BlockBuilder::new(128, Timestamp(0));
        b.flags_mut().has_entrymap = true;
        b.flags_mut().sealed_early = true;
        let v = b.finish();
        let v = BlockView::parse(&v).unwrap();
        assert!(v.flags().has_entrymap);
        assert!(v.flags().sealed_early);
        assert!(!v.flags().continues_prev);
        assert_eq!(v.flags().displaced_by, 0);
    }

    #[test]
    fn stamp_displaced_keeps_entries_and_revalidates() {
        let mut b = BlockBuilder::new(128, Timestamp(9));
        b.flags_mut().sealed_early = true;
        b.push(&hdr(8), b"moved");
        let moved = b.finish_parsed().displaced(5);
        let v = BlockView::parse(moved.image()).expect("CRC covers the new flags");
        assert_eq!(v.flags().displaced_by, 5);
        assert!(v.flags().sealed_early);
        assert_eq!(v.entry(0).unwrap().payload, b"moved");
        assert_eq!(
            **moved.displaced(0).image(),
            b.finish(),
            "stamping back restores the image"
        );
    }

    #[test]
    fn entries_from_resumes_mid_block() {
        let mut b = BlockBuilder::new(512, Timestamp(5));
        for i in 0..10u16 {
            b.push(&hdr(8 + i), &vec![i as u8; usize::from(i) * 3]);
        }
        let img = b.finish();
        let v = BlockView::parse(&img).unwrap();
        let all: Vec<_> = v.entries().map(|e| e.unwrap()).collect();
        for first in 0..=12u16 {
            let tail: Vec<_> = v.entries_from(first).map(|e| e.unwrap()).collect();
            let want = all.get(usize::from(first)..).unwrap_or(&[]);
            assert_eq!(tail, want, "from slot {first}");
        }
    }

    #[test]
    fn parsed_block_is_the_same_view_without_reparsing() {
        let mut b = BlockBuilder::new(256, Timestamp(77));
        b.flags_mut().sealed_early = true;
        b.push(&hdr(8), b"alpha");
        b.push(&hdr(9), b"beta");
        let img = Arc::new(b.finish());
        let parsed = ParsedBlock::parse(img.clone()).unwrap();
        let (held, fresh) = (parsed.view(), BlockView::parse(&img).unwrap());
        assert_eq!(held.count(), fresh.count());
        assert_eq!(held.flags(), fresh.flags());
        assert_eq!(held.first_ts(), fresh.first_ts());
        assert_eq!(
            held.entries().map(|e| e.unwrap()).collect::<Vec<_>>(),
            fresh.entries().map(|e| e.unwrap()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parsed_block_rejects_what_parse_rejects() {
        let mut b = BlockBuilder::new(256, Timestamp(0));
        b.push(&hdr(8), b"data");
        let mut img = b.finish();
        img[10] ^= 0x40;
        assert!(matches!(
            ParsedBlock::parse(Arc::new(img)).unwrap_err(),
            ClioError::CorruptBlock(_)
        ));
        assert!(matches!(
            ParsedBlock::parse(Arc::new(vec![INVALIDATED_BYTE; 256])).unwrap_err(),
            ClioError::InvalidatedBlock(_)
        ));
    }

    #[test]
    fn fill_packs_paper_density() {
        // §2.2: with 36 bytes of client data the minimal header costs <10%.
        let mut b = BlockBuilder::new(1024, Timestamp(0));
        let mut n = 0;
        while let PushOutcome::Written(_) = b.push(&hdr(8), &[0u8; 36]) {
            n += 1;
        }
        // 1024 - 18 trailer = 1006; each entry costs 36 + 4 = 40.
        assert_eq!(n, (1024 - TRAILER_SIZE) / 40);
    }
}

#[cfg(test)]
mod properties {
    use clio_testkit::prop::{
        any_u32, any_u64, bytes, check, just, one_of, pair, u16s, u8s, usizes, vec_of, Gen,
    };
    use clio_types::{LogFileId, SeqNo};

    use super::*;
    use crate::header::EntryForm;

    fn arb_header() -> Gen<EntryHeader> {
        let parts = pair(
            &pair(
                &u16s(0..4096),
                &one_of(vec![
                    just(EntryForm::Minimal),
                    just(EntryForm::Timestamped),
                    just(EntryForm::Full),
                ]),
            ),
            &pair(&any_u64(), &any_u32()),
        );
        parts.map(|((id, form), (ts, sq))| {
            EntryHeader::new(
                LogFileId(id),
                form,
                matches!(form, EntryForm::Timestamped | EntryForm::Full).then_some(Timestamp(ts)),
                matches!(form, EntryForm::Full).then_some(SeqNo(sq)),
            )
        })
    }

    #[test]
    fn pack_then_scan_is_identity() {
        let g = pair(
            &vec_of(&pair(&arb_header(), &bytes(0..120)), 0..20),
            &any_u64(),
        );
        check(
            "pack_then_scan_is_identity",
            256,
            &g,
            |(entries, first_ts)| {
                let mut b = BlockBuilder::new(4096, Timestamp(*first_ts));
                let mut written = Vec::new();
                for (h, p) in entries {
                    if let PushOutcome::Written(slot) = b.push(h, p) {
                        written.push((slot, *h, p.clone()));
                    }
                }
                let img = b.finish();
                let v = BlockView::parse(&img).unwrap();
                assert_eq!(usize::from(v.count()), written.len());
                for (slot, h, p) in &written {
                    let e = v.entry(*slot).unwrap();
                    assert_eq!(&e.header, h);
                    assert_eq!(e.payload, &p[..]);
                }
            },
        );
    }

    /// The builder's verified block, and a displaced re-stamp of it, are
    /// what the checker makes of the same bytes — image, count, flags and
    /// first timestamp — for any contents, size and flags.
    #[test]
    fn trusted_constructors_agree_with_the_checker() {
        let g = pair(
            &pair(
                &vec_of(&pair(&arb_header(), &bytes(0..120)), 0..20),
                &usizes(MIN_BLOCK_SIZE..2049),
            ),
            &pair(&any_u64(), &pair(&u8s(0..4), &u8s(0..8))),
        );
        check(
            "trusted_constructors_agree_with_the_checker",
            256,
            &g,
            |((entries, size), (first_ts, (flag_bits, by)))| {
                let mut b = BlockBuilder::new(*size, Timestamp(*first_ts));
                b.flags_mut().has_entrymap = flag_bits & 1 != 0;
                b.flags_mut().sealed_early = flag_bits & 2 != 0;
                for (h, p) in entries {
                    let _ = b.push(h, p);
                }
                let built = b.finish_parsed();
                assert_eq!(built, ParsedBlock::parse(Arc::new(b.finish())).unwrap());
                let moved = built.displaced(*by);
                assert_eq!(moved, ParsedBlock::parse(moved.image().clone()).unwrap());
                assert_eq!(moved.view().flags().displaced_by, *by);
            },
        );
    }

    #[test]
    fn parse_never_panics_on_noise() {
        check(
            "parse_never_panics_on_noise",
            256,
            &bytes(128..512),
            |noise| {
                // Any byte soup either parses or errors; it must not panic.
                let _ = BlockView::parse(noise);
            },
        );
    }

    #[test]
    fn single_bitflip_never_parses_clean() {
        let g = pair(&usizes(0..1024), &u8s(0..8));
        check(
            "single_bitflip_never_parses_clean",
            256,
            &g,
            |(flip_at, bit)| {
                let mut b = BlockBuilder::new(1024, Timestamp(7));
                b.push(
                    &EntryHeader::new(LogFileId(8), EntryForm::Minimal, None, None),
                    b"payload",
                );
                let mut img = b.finish();
                let at = flip_at % img.len();
                img[at] ^= 1 << bit;
                assert!(BlockView::parse(&img).is_err());
            },
        );
    }
}
