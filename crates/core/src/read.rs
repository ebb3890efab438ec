//! Reading log files: entry reassembly, cursors, time and unique-id lookup.
//!
//! "When a log file is opened for reading, access can be provided to the
//! sequence of entries in the file either subsequent to, or prior to, any
//! previous point in time" (§2). A [`LogCursor`] walks the entries of a log
//! file — including all its sublogs (§2.1) — in either direction, using the
//! entrymap tree to hop over blocks without relevant entries, and the
//! timestamp search (§2.1) to start from a point in time.
//!
//! # Concurrency
//!
//! The medium is write-once: every sealed block is immutable forever, so
//! reads need no coordination with the appender at all. Every operation
//! here runs against a [`ReadView`] snapshot published by the append path
//! — the append-side state mutex is **never** acquired, and no lock is
//! held across device I/O. The one part of a snapshot that moves is the
//! open block, shared with the appender and append-only: a read that lands
//! on it materialises its image under that block's own leaf mutex (see
//! [`SharedOpenBlock`]). Cursors pin their snapshots at creation, see the
//! pinned open block grow, and refresh on crossing a snapshot's watermark
//! (reaching the end), which is what lets cursors tail a growing log.
//!
//! # One verification per block visit
//!
//! Every block image is CRC-checked before any entry of it is served, and
//! a step through a scan parses the block it stands in once: the entry is
//! reassembled from that parse, not looked up again by address. A cursor
//! additionally carries the verified block its last entry came from (a
//! [`ParsedBlock`], which only the check itself can construct), so the
//! next entry of the same block costs a walk over its slots — no cache
//! lookup, no CRC. It may carry only a block whose placement and content
//! are final: any block of a sealed volume, or an active-volume block
//! with `db + 1 < active_data_end` of the pinned snapshot. The open block
//! grows, a block sealed in memory can still be displaced by append
//! verification, and the last device block may be a rewriteable RAM tail
//! (§2.3.1); those are read afresh on every call.
//!
//! The same holds across the hop from one block to the next. The entrymap
//! search that names the next block has read and verified it to answer,
//! and hands it over ([`Locator::take_block`]): the scan serves from that
//! block within the call, and carries it further only if it is final. And
//! the maps the search read on the way — complete, on the device, in final
//! blocks — the cursor remembers ([`MapMemo`]), because its next step
//! starts by asking for the same ones.
//!
//! # Sharding
//!
//! A log file's entries all live on one shard (routing is by top-level
//! ancestor, and a sublog closure never crosses shards), so most cursors
//! have a single shard-level part. A cursor over a path whose closure
//! *does* span shards — only the root `/` can — walks its parts in
//! ascending shard order: entries come back shard by shard, in log order
//! within each shard, with no global time ordering across shards.

use std::cell::Cell;
use std::sync::Arc;

use clio_entrymap::tsearch;
use clio_entrymap::{BlockSource, Locator, MapMemo, PendingMaps};
use clio_format::{BlockView, EntryRef, FragKind, ParsedBlock};
use clio_types::{BlockNo, ClioError, EntryAddr, LogFileId, Result, SeqNo, Timestamp};
use clio_volume::Volume;

use crate::obs::ServiceObs;
use crate::service::{globalize_addr, LogService, ReadView, SealedQueue, Shard, SharedOpenBlock};
use crate::write::MAX_SEAL_ATTEMPTS;

/// Maximum client/server clock skew (µs) tolerated when resolving a
/// client-generated unique id (§2.1: "its correctness depends on the
/// sequence number not wrapping around within the maximum possible time
/// skew between the client and the server").
pub const UNIQUE_ID_SKEW_US: u64 = 5_000_000;

/// A fully reassembled log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Where the entry (its first fragment) lives.
    pub addr: EntryAddr,
    /// The log file the entry was tagged with (its most specific sublog).
    pub id: LogFileId,
    /// The service timestamp from the header, if the entry carried one.
    pub timestamp: Option<Timestamp>,
    /// The client sequence number, if the entry carried one.
    pub seqno: Option<SeqNo>,
    /// The mandatory first-entry timestamp of the entry's block — the
    /// fallback time resolution for untimestamped entries (§2.1).
    pub block_ts: Timestamp,
    /// The client payload.
    pub data: Vec<u8>,
}

impl Entry {
    /// The entry's best-known write time: its own timestamp, or its
    /// block's.
    #[must_use]
    pub fn effective_ts(&self) -> Timestamp {
        self.timestamp.unwrap_or(self.block_ts)
    }
}

/// What one read operation carries through its scans: how many blocks it
/// loaded from a device itself, and — for a cursor, which keeps one of
/// these across calls — what its scans have already read and verified.
#[derive(Default)]
pub(crate) struct ReadOp {
    /// Blocks loaded from a device (cache misses this operation led).
    device_loads: Cell<u64>,
    scan: ScanState,
}

/// What a scan over **one fixed id set** keeps from call to call: the
/// block its last entry came from, and the entrymap maps it has read on
/// the volume it stands in. Both hold only what was read from blocks that
/// are final ([`VolSource::final_end`]), so using them is indistinguishable
/// from reading the same addresses again.
#[derive(Default)]
pub(crate) struct ScanState {
    held: Option<HeldBlock>,
    /// Map answers over the scan's ids on volume `maps_vol`; dropped when
    /// the scan moves to another volume.
    maps: MapMemo,
    maps_vol: u32,
}

/// A verified block a scan carries between calls. Only a block whose
/// placement and content are final is ever held (see
/// [`VolSource::final_end`]), so serving the next entry from it is
/// indistinguishable from re-reading its address.
struct HeldBlock {
    vol_idx: u32,
    db: u64,
    block: ParsedBlock,
}

/// A per-volume [`BlockSource`], and the one reader of log entries: a
/// volume's sealed blocks plus — for the active volume of a snapshot — the
/// snapshot's open block, sealed queue and `data_end` watermark, all
/// borrowed. Cursors and `read_entry` build one per volume they touch
/// ([`Shard::source_for`]); recovery builds one per just-mounted volume
/// ([`VolSource::bare`]) and reads the catalog log file through it.
pub(crate) struct VolSource<'v> {
    vol: &'v Volume,
    /// The volume's index in its shard's sequence, as entry addresses
    /// carry it.
    vol_idx: u32,
    /// The in-memory entrymap state covering the volume's unmapped tail.
    pending: Option<&'v PendingMaps>,
    /// The shared open block. Its image is materialised only when a read
    /// actually lands on it.
    open: Option<(u64, &'v SharedOpenBlock)>,
    /// Blocks sealed in memory but not yet written to the device (the
    /// snapshot's group-commit queue). Served like sealed blocks; they sit
    /// past the device watermark.
    queued: Option<&'v SealedQueue>,
    /// The snapshot's sealed-data watermark for the active volume; sealed
    /// volumes read their (final, immutable) device value instead.
    watermark: Option<u64>,
    fanout: usize,
    /// The owning operation's device-load count.
    device_loads: &'v Cell<u64>,
    /// Where this source's entrymap searches are counted. Recovery's are
    /// not: the service's locate series start at zero.
    obs: Option<&'v ServiceObs>,
}

impl<'v> VolSource<'v> {
    /// A source over a just-mounted volume, as recovery reads it: no open
    /// block and no queue (the crash destroyed them), so every written
    /// block is final. `pending` is the volume's rebuilt entrymap state,
    /// once recovery has rebuilt it.
    pub(crate) fn bare(
        vol: &'v Volume,
        vol_idx: u32,
        fanout: usize,
        pending: Option<&'v PendingMaps>,
        device_loads: &'v Cell<u64>,
    ) -> VolSource<'v> {
        VolSource {
            vol,
            vol_idx,
            pending,
            open: None,
            queued: None,
            watermark: None,
            fanout,
            device_loads,
            obs: None,
        }
    }

    /// The open (unsealed) block's number, if this source covers one. Its
    /// entries are not yet reflected in any entrymap bitmap — the writer
    /// notes a block only when it seals — so scans must visit it
    /// explicitly.
    fn open_db(&self) -> Option<u64> {
        self.open.map(|(db, _)| db)
    }

    /// The first block whose placement or content can still change; what
    /// was read and verified below it may stand in for reading it again.
    /// Every block of a sealed volume is final, and so are the active
    /// volume's device blocks short of the last. The open block grows; a
    /// queued block can still be displaced by append verification; and the
    /// last device block may be a rewriteable RAM tail (§2.3.1) — those are
    /// read afresh every time.
    fn final_end(&self) -> u64 {
        self.watermark.map_or(u64::MAX, |end| end.saturating_sub(1))
    }

    /// Whether block `db` lies below [`VolSource::final_end`].
    fn is_final(&self, db: u64) -> bool {
        db < self.final_end()
    }

    /// Reads and verifies block `db`, or its re-placement if `db` was
    /// invalidated after addresses into it were issued: append
    /// verification re-places an image, slots unchanged, within one seal's
    /// retries, behind nothing but invalidated blocks, and stamps it with
    /// the distance (§2.3.2). Blocks that merely follow an invalidated one
    /// (a torn tail recovery burned, then unrelated entries) carry no such
    /// stamp, and the invalidated block itself is the answer.
    fn fetch(&self, db: u64) -> Result<(u64, ParsedBlock)> {
        match ParsedBlock::parse(self.read(db)?) {
            Ok(block) => Ok((db, block)),
            Err(ClioError::InvalidatedBlock(_)) => {
                let window = db + u64::from(MAX_SEAL_ATTEMPTS);
                for cand in db + 1..window.min(self.data_end()) {
                    if let Ok(moved) = ParsedBlock::parse(self.read(cand)?) {
                        if u64::from(moved.view().flags().displaced_by) == cand - db {
                            return Ok((cand, moved));
                        }
                        break;
                    }
                }
                Err(ClioError::InvalidatedBlock(BlockNo(db)))
            }
            Err(e) => Err(e),
        }
    }

    /// The verified block at `db` (or its re-placement) and whether it may
    /// be carried past this call: the block the entrymap search that named
    /// `db` verified there (`handed`), the scan's held block if that is the
    /// one asked for, a fresh [`VolSource::fetch`] otherwise. Finality is
    /// decided here, against the snapshot the block was read under.
    fn block(
        &self,
        held: &mut Option<HeldBlock>,
        handed: Option<ParsedBlock>,
        db: u64,
    ) -> Result<(u64, ParsedBlock, bool)> {
        let carried = held.take();
        if let Some(block) = handed {
            return Ok((db, block, self.is_final(db)));
        }
        match carried {
            Some(h) if h.vol_idx == self.vol_idx && h.db == db => Ok((db, h.block, true)),
            _ => {
                let (at, block) = self.fetch(db)?;
                Ok((at, block, self.is_final(at)))
            }
        }
    }

    /// Keeps `block`, read from `db`, for the scan's next call — if
    /// [`VolSource::block`] found it final.
    fn hold(&self, held: &mut Option<HeldBlock>, keep: bool, db: u64, block: ParsedBlock) {
        if keep {
            *held = Some(HeldBlock {
                vol_idx: self.vol_idx,
                db,
                block,
            });
        }
    }

    /// One entrymap search over this volume's tree and pending maps,
    /// answering from the maps `scan` has already read here where it can.
    /// Returns the block found together with its verified image — the
    /// search read it to answer — for [`VolSource::block`] to use.
    fn locate(
        &self,
        ids: &[LogFileId],
        scan: &mut ScanState,
        search: impl FnOnce(&mut Locator<'_, Self>) -> Result<Option<u64>>,
    ) -> Result<Option<(u64, Option<ParsedBlock>)>> {
        if scan.maps_vol != self.vol_idx {
            scan.maps.clear();
            scan.maps_vol = self.vol_idx;
        }
        let mut loc = Locator::new(self, self.pending).with_memo(&mut scan.maps, self.final_end());
        let t = self.obs.map(|_| clio_obs::clock::now());
        let hop = search(&mut loc)?;
        if let (Some(obs), Some(t)) = (self.obs, t) {
            obs.note_locate(ids.first().copied(), &loc.stats, t.elapsed());
        }
        Ok(hop.map(|db| (db, loc.take_block())))
    }

    /// The next entry of `ids` in this volume at or after `(db, slot)`,
    /// honouring `floor` (skip entries before that time) when set.
    fn scan_forward(
        &self,
        ids: &[LogFileId],
        (mut db, mut slot): (u64, u16),
        floor: Option<Timestamp>,
        scan: &mut ScanState,
    ) -> Result<Option<Entry>> {
        let end = self.data_end();
        let mut handed = None;
        while db < end {
            // A position inside a block that verification has since
            // re-placed is the same position in the re-placement.
            if let Ok((at, block, keep)) = self.block(&mut scan.held, handed.take(), db) {
                db = at;
                if let Some(e) = next_in_block(self, db, &block.view(), slot, ids, floor)? {
                    self.hold(&mut scan.held, keep, db, block);
                    return Ok(Some(e));
                }
            }
            // Nothing (left) in this block: hop to the next block with
            // entries of ours via the entrymap tree. The open block is
            // invisible to the entrymap (it has not been noted yet), so
            // visit it explicitly when the tree finds nothing.
            match self.locate(ids, scan, |loc| loc.locate_at_or_after(ids, db + 1))? {
                Some((nb, block)) => (db, handed) = (nb, block),
                None => match self.open_db() {
                    Some(odb) if odb > db => db = odb,
                    _ => break,
                },
            }
            slot = 0;
        }
        Ok(None)
    }

    /// Calls `each` with every entry of `ids` in this volume, in log
    /// order.
    pub(crate) fn for_each_entry(
        &self,
        ids: &[LogFileId],
        mut each: impl FnMut(Entry),
    ) -> Result<()> {
        let mut scan = ScanState::default();
        let mut at = (0, 0);
        while let Some(e) = self.scan_forward(ids, at, None, &mut scan)? {
            at = (e.addr.block.0, e.addr.slot + 1);
            each(e);
        }
        Ok(())
    }
}

impl BlockSource for VolSource<'_> {
    fn fanout(&self) -> usize {
        self.fanout
    }

    fn data_end(&self) -> u64 {
        let mut end = self.watermark.unwrap_or_else(|| self.vol.data_end());
        if let Some(queue_end) = self.queued.and_then(SealedQueue::end_db) {
            end = end.max(queue_end);
        }
        match self.open {
            Some((db, _)) => end.max(db + 1),
            None => end,
        }
    }

    fn read(&self, db: u64) -> Result<Arc<Vec<u8>>> {
        if let Some((odb, blk)) = self.open {
            if odb == db {
                return Ok(blk.image());
            }
        }
        if let Some(img) = self.queued.and_then(|q| q.get(db)) {
            return Ok(img.clone());
        }
        self.vol.read_data_block_counted(db, self.device_loads)
    }
}

/// Whether a scan over `ids` stops at record `e`: one of ours, and the
/// start of an entry rather than a continuation of one.
fn is_entry_of(ids: &[LogFileId], e: &EntryRef<'_>) -> bool {
    ids.contains(&e.header.id) && !matches!(e.header.frag, FragKind::Continuation { .. })
}

/// Builds the entry whose first (or only) record is `first`, a record of
/// the already-verified block `blk` at `db`; a fragment chain is followed
/// into the blocks after it.
fn reassemble(
    src: &VolSource<'_>,
    db: u64,
    blk: &BlockView<'_>,
    first: &EntryRef<'_>,
) -> Result<Entry> {
    let addr = EntryAddr::new(src.vol_idx, BlockNo(db), first.slot);
    let header = first.header;
    let mut data = first.payload.to_vec();
    if let FragKind::First { total_len, chain } = header.frag {
        // Reassemble continuation fragments from following blocks.
        // Continuations are written in the immediately following
        // blocks; unparseable blocks (invalidated, §2.3.2) are skipped
        // as far as one seal can displace a block, and so is a block of
        // nothing but entrymap records (the maps due at a boundary
        // overflowed it, so the writer sealed it and continued in the
        // next one). Any other readable block without the next piece
        // means the chain is torn — the entry does not exist.
        let total = total_len as usize;
        let mut at = db + 1;
        let mut skipped = 0u32;
        while data.len() < total {
            if at >= src.data_end() || skipped >= MAX_SEAL_ATTEMPTS {
                return Err(ClioError::NotFound(format!(
                    "fragments of entry {addr} missing past block {at}"
                )));
            }
            let ci = src.read(at)?;
            match BlockView::parse(&ci) {
                Ok(v) => {
                    let mut found = false;
                    let mut maps_only = v.count() > 0;
                    for e in v.entries() {
                        let Ok(e) = e else { break };
                        if e.header.frag == (FragKind::Continuation { chain })
                            && e.header.id == header.id
                        {
                            data.extend_from_slice(e.payload);
                            found = true;
                            break;
                        }
                        maps_only &= e.header.id == LogFileId::ENTRYMAP;
                    }
                    if found {
                        skipped = 0;
                    } else if !maps_only {
                        return Err(ClioError::NotFound(format!(
                            "fragment chain of entry {addr} broken at block {at}"
                        )));
                    }
                }
                Err(_) => skipped += 1,
            }
            at += 1;
        }
        if data.len() != total {
            return Err(ClioError::BadRecord("fragment reassembly size mismatch"));
        }
    } else if matches!(header.frag, FragKind::Continuation { .. }) {
        return Err(ClioError::BadRecord(
            "address points at a continuation fragment",
        ));
    }
    Ok(Entry {
        addr,
        id: header.id,
        timestamp: header.timestamp,
        seqno: header.seqno,
        block_ts: blk.first_ts(),
        data,
    })
}

/// The first entry of `ids` in block `blk` at slot `slot` or later,
/// skipping entries timed before `floor`.
fn next_in_block(
    src: &VolSource<'_>,
    db: u64,
    blk: &BlockView<'_>,
    slot: u16,
    ids: &[LogFileId],
    floor: Option<Timestamp>,
) -> Result<Option<Entry>> {
    for e in blk.entries_from(slot) {
        let Ok(e) = e else { break };
        if !is_entry_of(ids, &e) {
            continue;
        }
        let eff = e.header.timestamp.unwrap_or_else(|| blk.first_ts());
        if floor.is_some_and(|f| eff < f) {
            continue;
        }
        match reassemble(src, db, blk, &e) {
            Ok(entry) => return Ok(Some(entry)),
            // A fragmented entry whose continuation was lost (torn by a
            // crash, or destroyed by §2.3.2 corruption) is treated as
            // absent.
            Err(ClioError::NotFound(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// The last entry of `ids` in block `blk` strictly before slot `slot_excl`.
fn prev_in_block(
    src: &VolSource<'_>,
    db: u64,
    blk: &BlockView<'_>,
    slot_excl: u16,
    ids: &[LogFileId],
) -> Result<Option<Entry>> {
    let ours: Vec<EntryRef<'_>> = blk
        .entries()
        .map_while(|e| e.ok())
        .take_while(|e| e.slot < slot_excl)
        .filter(|e| is_entry_of(ids, e))
        .collect();
    for e in ours.iter().rev() {
        match reassemble(src, db, blk, e) {
            Ok(entry) => return Ok(Some(entry)),
            // Torn/lost fragments: fall back to the previous candidate.
            Err(ClioError::NotFound(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

impl Shard {
    /// The reader over one volume of the snapshot — with the open block,
    /// the sealed queue and the watermark when the volume is active.
    /// Device loads made through it are added to `device_loads`, entrymap
    /// searches counted in the service's locate series. Only an address a
    /// client made up names a volume the snapshot does not have.
    pub(crate) fn source_for<'v>(
        &'v self,
        view: &'v ReadView,
        vol_idx: u32,
        device_loads: &'v Cell<u64>,
    ) -> Result<VolSource<'v>> {
        let (vol, pending, open, queued, watermark) = if vol_idx == view.active_index {
            (
                &*view.active,
                &*view.active_pending,
                view.open.as_ref().map(|(db, blk)| (*db, &**blk)),
                Some(&*view.queued),
                Some(view.active_data_end),
            )
        } else {
            let sealed = view
                .sealed
                .get(vol_idx as usize)
                .ok_or_else(|| ClioError::NotFound(format!("volume index {vol_idx}")))?;
            (&*sealed.vol, &sealed.pending, None, None, None)
        };
        Ok(VolSource {
            vol,
            vol_idx,
            pending: Some(pending),
            open,
            queued,
            watermark,
            fanout: usize::from(self.cfg.fanout),
            device_loads,
            obs: Some(&self.obs),
        })
    }

    /// Runs `op` as one read span: its latency, its outcome and the device
    /// blocks it reports having loaded itself all land in the service
    /// registry and the trace ring.
    fn spanned<T>(
        &self,
        target: impl FnOnce(&T) -> Option<LogFileId>,
        op: impl FnOnce() -> (Result<T>, u64),
    ) -> Result<T> {
        let start = clio_obs::clock::now();
        let mut span = self.obs.span("read");
        let (r, device_loads) = op();
        let target = r.as_ref().ok().and_then(target);
        if let Some(id) = target {
            span.set_target(u64::from(id.0));
        }
        span.attr("blocks", device_loads);
        if r.is_err() {
            span.fail("error");
        }
        drop(span);
        self.obs.note_read(target, start.elapsed(), r.is_ok());
        r
    }

    /// Reads and reassembles the entry at the shard-local `addr` (lock-free:
    /// operates on the current read snapshot). Records the read span and
    /// metrics.
    pub(crate) fn read_entry(&self, addr: EntryAddr) -> Result<Entry> {
        self.spanned(
            |e: &Entry| Some(e.id),
            || {
                let op = ReadOp::default();
                let r = self.read_entry_in(&self.read_view(), addr, &op);
                (r, op.device_loads.get())
            },
        )
    }

    fn read_entry_in(&self, view: &ReadView, addr: EntryAddr, op: &ReadOp) -> Result<Entry> {
        let src = self.source_for(view, addr.volume_index, &op.device_loads)?;
        let (db, blk) = src.fetch(addr.block.0).map_err(|e| match e {
            ClioError::InvalidatedBlock(_) => ClioError::NotFound(format!("entry {addr}")),
            e => e,
        })?;
        let blk = blk.view();
        reassemble(&src, db, &blk, &blk.entry(addr.slot)?)
    }

    /// Scans forward from `(vol, db, slot)` for the next entry of `ids`,
    /// honouring `floor` (skip entries before that time) when set.
    pub(crate) fn scan_forward(
        &self,
        view: &ReadView,
        ids: &[LogFileId],
        start: (u32, u64, u16),
        floor: Option<Timestamp>,
        op: &mut ReadOp,
    ) -> Result<Option<Entry>> {
        let (mut vol_idx, db, slot) = start;
        let mut from = (db, slot);
        // The snapshot covers volumes 0..=active_index.
        while vol_idx <= view.active_index {
            let src = self.source_for(view, vol_idx, &op.device_loads)?;
            if let Some(e) = src.scan_forward(ids, from, floor, &mut op.scan)? {
                return Ok(Some(e));
            }
            vol_idx += 1;
            from = (0, 0);
        }
        Ok(None)
    }

    /// Scans backward for the last entry of `ids` strictly before
    /// `(vol, db, slot)` (slot `u16::MAX` means "from the end of block
    /// `db`"; `db == u64::MAX` means "from the end of the volume").
    pub(crate) fn scan_backward(
        &self,
        view: &ReadView,
        ids: &[LogFileId],
        before: (u32, u64, u16),
        op: &mut ReadOp,
    ) -> Result<Option<Entry>> {
        let (mut vol_idx, mut db, mut slot_excl) = before;
        loop {
            let src = self.source_for(view, vol_idx, &op.device_loads)?;
            let end = src.data_end();
            if end > 0 {
                if db >= end {
                    db = end - 1;
                    slot_excl = u16::MAX;
                }
                let mut handed = None;
                loop {
                    if let Ok((at, block, keep)) = src.block(&mut op.scan.held, handed.take(), db) {
                        db = at;
                        if let Some(e) = prev_in_block(&src, db, &block.view(), slot_excl, ids)? {
                            src.hold(&mut op.scan.held, keep, db, block);
                            return Ok(Some(e));
                        }
                    }
                    if db == 0 {
                        break;
                    }
                    match src.locate(ids, &mut op.scan, |loc| loc.locate_before(ids, db - 1))? {
                        Some((pb, block)) => {
                            (db, handed) = (pb, block);
                            slot_excl = u16::MAX;
                        }
                        None => break,
                    }
                }
            }
            if vol_idx == 0 {
                return Ok(None);
            }
            vol_idx -= 1;
            db = u64::MAX;
            slot_excl = u16::MAX;
        }
    }

    // ------------------------------------------------------------------
    // Shard-level cursors (over already-resolved id sets).
    // ------------------------------------------------------------------

    /// A cursor over `ids` positioned before this shard's first entry.
    pub(crate) fn cursor_ids(&self, ids: Vec<LogFileId>) -> ShardCursor<'_> {
        ShardCursor {
            svc: self,
            view: self.read_view(),
            ids,
            anchor: Anchor::Start,
            floor: None,
            op: ReadOp::default(),
        }
    }

    /// A cursor over `ids` positioned after this shard's last entry.
    pub(crate) fn cursor_ids_from_end(&self, ids: Vec<LogFileId>) -> ShardCursor<'_> {
        ShardCursor {
            svc: self,
            view: self.read_view(),
            ids,
            anchor: Anchor::End,
            floor: None,
            op: ReadOp::default(),
        }
    }

    /// A cursor over `ids` positioned at `ts` within this shard.
    pub(crate) fn cursor_ids_from_time(
        &self,
        ids: Vec<LogFileId>,
        ts: Timestamp,
    ) -> Result<ShardCursor<'_>> {
        let view = self.read_view();
        // Volumes are created in time order; start in the last volume whose
        // label predates ts, then refine with the in-volume timestamp
        // search (§2.1).
        let predating = view
            .sealed
            .iter()
            .map(|s| &s.vol)
            .chain([&view.active])
            .take_while(|v| v.label().created <= ts)
            .count();
        let vol_pick = predating.saturating_sub(1) as u32;
        let mut op = ReadOp::default();
        let src = self.source_for(&view, vol_pick, &op.device_loads)?;
        let (db_opt, _) = tsearch::find_block_by_time(&src, ts)?;
        let start = (vol_pick, db_opt.unwrap_or(0), 0u16);
        let anchor = match self.scan_forward(&view, &ids, start, Some(ts), &mut op)? {
            Some(e) => Anchor::BeforeEntry(e.addr),
            None => Anchor::End,
        };
        Ok(ShardCursor {
            svc: self,
            view,
            ids,
            anchor,
            floor: None,
            op,
        })
    }
}

impl LogService {
    /// Reads and reassembles the entry at `addr` (lock-free: operates on
    /// the entry's shard's current read snapshot).
    pub fn read_entry(&self, addr: EntryAddr) -> Result<Entry> {
        let (shard, local) = self.localize_addr(addr)?;
        let mut e = self.shards[shard].read_entry(local)?;
        e.addr = globalize_addr(shard as u32, e.addr);
        Ok(e)
    }

    /// The id closure (log file + sublogs) for a path, from the catalog
    /// shard's snapshot, with the read-permission check applied.
    fn closure_of(&self, path: &str) -> Result<Vec<LogFileId>> {
        let view = self.shards[0].read_view();
        let id = view.catalog.resolve(path)?;
        let attrs = view.catalog.attrs(id)?;
        if attrs.perms & clio_format::records::PERM_READ == 0 {
            return Err(ClioError::PermissionDenied(path.to_owned()));
        }
        Ok(view.catalog.closure(id))
    }

    /// Partitions a closure by shard (ascending shard order). A path below
    /// a top-level log file always lands in exactly one group.
    fn parts_for(&self, ids: Vec<LogFileId>) -> Vec<(u32, Vec<LogFileId>)> {
        let view = self.shards[0].read_view();
        let mask = self.route_mask();
        let mut groups: std::collections::BTreeMap<u32, Vec<LogFileId>> =
            std::collections::BTreeMap::new();
        for id in ids {
            let shard = view.catalog.route(id, mask) as u32;
            groups.entry(shard).or_default().push(id);
        }
        groups.into_iter().collect()
    }

    /// A cursor over `path` (and all its sublogs) positioned before the
    /// first entry.
    pub fn cursor(&self, path: &str) -> Result<LogCursor<'_>> {
        let parts = self
            .parts_for(self.closure_of(path)?)
            .into_iter()
            .map(|(shard, ids)| (shard, self.shards[shard as usize].cursor_ids(ids)))
            .collect::<Vec<_>>();
        Ok(LogCursor { parts, active: 0 })
    }

    /// A cursor positioned after the last entry (for backward reading).
    pub fn cursor_from_end(&self, path: &str) -> Result<LogCursor<'_>> {
        let parts = self
            .parts_for(self.closure_of(path)?)
            .into_iter()
            .map(|(shard, ids)| (shard, self.shards[shard as usize].cursor_ids_from_end(ids)))
            .collect::<Vec<_>>();
        let active = parts.len().saturating_sub(1);
        Ok(LogCursor { parts, active })
    }

    /// A cursor positioned at `ts`: `next()` yields entries written at or
    /// after `ts`, `prev()` yields those before it (§2).
    pub fn cursor_from_time(&self, path: &str, ts: Timestamp) -> Result<LogCursor<'_>> {
        let mut parts = Vec::new();
        for (shard, ids) in self.parts_for(self.closure_of(path)?) {
            parts.push((
                shard,
                self.shards[shard as usize].cursor_ids_from_time(ids, ts)?,
            ));
        }
        Ok(LogCursor { parts, active: 0 })
    }

    /// Resolves an asynchronously written entry by its client-generated
    /// unique id — approximate timestamp plus sequence number (§2.1). The
    /// timestamp bounds the search window to ± [`UNIQUE_ID_SKEW_US`].
    pub fn find_by_unique_id(
        &self,
        path: &str,
        approx_ts: Timestamp,
        seqno: SeqNo,
    ) -> Result<Option<Entry>> {
        let from = Timestamp(approx_ts.0.saturating_sub(UNIQUE_ID_SKEW_US));
        let limit = approx_ts.saturating_add_micros(UNIQUE_ID_SKEW_US);
        // Search every shard of the closure: the window is per shard, so a
        // miss on one shard must not end the search on the others.
        for (shard, ids) in self.parts_for(self.closure_of(path)?) {
            let mut cur = self.shards[shard as usize].cursor_ids_from_time(ids, from)?;
            while let Some(mut e) = cur.next()? {
                if e.effective_ts() > limit {
                    break;
                }
                if e.seqno == Some(seqno) {
                    e.addr = globalize_addr(shard, e.addr);
                    return Ok(Some(e));
                }
            }
        }
        Ok(None)
    }
}

/// Where a cursor stands between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Anchor {
    /// Before the first entry.
    Start,
    /// After the last entry.
    End,
    /// On the entry at this address (last one returned).
    At(EntryAddr),
    /// Immediately before the entry at this address.
    BeforeEntry(EntryAddr),
}

/// A bidirectional cursor over one shard's slice of an id closure.
/// Entry addresses are shard-local; the public [`LogCursor`] globalizes
/// them. The read span and metrics are recorded here (once per advance)
/// so the multi-part wrapper never double-counts.
pub(crate) struct ShardCursor<'a> {
    svc: &'a Shard,
    view: Arc<ReadView>,
    ids: Vec<LogFileId>,
    anchor: Anchor,
    floor: Option<Timestamp>,
    /// Carried across calls for the block the last entry came from.
    op: ReadOp,
}

impl ShardCursor<'_> {
    /// The next entry at or after the cursor, advancing it.
    pub(crate) fn next(&mut self) -> Result<Option<Entry>> {
        self.spanned(Self::next_inner)
    }

    /// The entry before the cursor, moving it backward.
    pub(crate) fn prev(&mut self) -> Result<Option<Entry>> {
        self.spanned(Self::prev_inner)
    }

    /// Runs one cursor movement as one read span.
    fn spanned(
        &mut self,
        step: impl FnOnce(&mut Self) -> Result<Option<Entry>>,
    ) -> Result<Option<Entry>> {
        self.svc.spanned(
            |e: &Option<Entry>| e.as_ref().map(|e| e.id),
            || {
                let r = step(self);
                (r, self.op.device_loads.take())
            },
        )
    }

    fn next_inner(&mut self) -> Result<Option<Entry>> {
        let start = match self.anchor {
            Anchor::End => return Ok(None),
            Anchor::Start => (0u32, 0u64, 0u16),
            Anchor::At(a) => (a.volume_index, a.block.0, a.slot + 1),
            Anchor::BeforeEntry(a) => (a.volume_index, a.block.0, a.slot),
        };
        let svc = self.svc;
        if let Some(e) = svc.scan_forward(&self.view, &self.ids, start, self.floor, &mut self.op)? {
            self.anchor = Anchor::At(e.addr);
            self.floor = None;
            return Ok(Some(e));
        }
        // The pinned snapshot is exhausted — the cursor crossed its
        // watermark. Refresh to the currently published snapshot and look
        // again; apart from the pinned open block growing, this is the
        // only point a cursor observes new appends.
        let fresh = svc.read_view();
        if Arc::ptr_eq(&fresh, &self.view) {
            return Ok(None);
        }
        self.view = fresh;
        match svc.scan_forward(&self.view, &self.ids, start, self.floor, &mut self.op)? {
            Some(e) => {
                self.anchor = Anchor::At(e.addr);
                self.floor = None;
                Ok(Some(e))
            }
            None => Ok(None),
        }
    }

    fn prev_inner(&mut self) -> Result<Option<Entry>> {
        let before = match self.anchor {
            Anchor::Start => return Ok(None),
            Anchor::End => {
                // Walk backward from the end of the pinned snapshot.
                (self.view.active_index, u64::MAX, u16::MAX)
            }
            Anchor::At(a) | Anchor::BeforeEntry(a) => (a.volume_index, a.block.0, a.slot),
        };
        match self
            .svc
            .scan_backward(&self.view, &self.ids, before, &mut self.op)?
        {
            Some(e) => {
                self.anchor = Anchor::BeforeEntry(e.addr);
                Ok(Some(e))
            }
            None => {
                self.anchor = Anchor::Start;
                Ok(None)
            }
        }
    }
}

/// A bidirectional cursor over the entries of a log file and its sublogs.
///
/// The sublog set is captured at creation; log files created afterwards are
/// not included. The cursor pins a read snapshot (per shard) at creation
/// and walks it without ever locking the appender; when `next()` exhausts
/// the pinned snapshot it refreshes to the current one, so `next()` after
/// the end simply returns `None` and may return new entries later —
/// cursors can tail a growing log.
///
/// When the closure spans several shards (only a cursor over `/` can), the
/// parts are walked in ascending shard order, and once the cursor has moved
/// past a shard it does not revisit it: tailing observes new entries only
/// on the final shard.
pub struct LogCursor<'a> {
    /// One shard-level cursor per shard of the closure, ascending.
    parts: Vec<(u32, ShardCursor<'a>)>,
    /// The part the cursor currently stands in.
    active: usize,
}

#[allow(clippy::should_implement_trait)] // fallible: `Iterator::next` cannot return `Result`
impl LogCursor<'_> {
    /// The next entry at or after the cursor, advancing it.
    pub fn next(&mut self) -> Result<Option<Entry>> {
        loop {
            let Some((shard, part)) = self.parts.get_mut(self.active) else {
                return Ok(None);
            };
            if let Some(mut e) = part.next()? {
                e.addr = globalize_addr(*shard, e.addr);
                return Ok(Some(e));
            }
            if self.active + 1 >= self.parts.len() {
                // Stay on the last part so tailing keeps working.
                return Ok(None);
            }
            self.active += 1;
        }
    }

    /// The entry before the cursor, moving it backward.
    pub fn prev(&mut self) -> Result<Option<Entry>> {
        loop {
            let Some((shard, part)) = self.parts.get_mut(self.active) else {
                return Ok(None);
            };
            if let Some(mut e) = part.prev()? {
                e.addr = globalize_addr(*shard, e.addr);
                return Ok(Some(e));
            }
            if self.active == 0 {
                return Ok(None);
            }
            self.active -= 1;
        }
    }

    /// Collects every remaining entry (test/example convenience).
    pub fn collect_remaining(&mut self) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        while let Some(e) = self.next()? {
            out.push(e);
        }
        Ok(out)
    }
}
