//! The append path: block building, entrymap emission, fragmentation,
//! forced writes, volume switching, and corruption handling.

use std::collections::BTreeSet;
use std::sync::Arc;

use clio_entrymap::Geometry;
use clio_format::records::BadBlockRecord;
use clio_format::{
    BlockBuilder, BlockFlags, EntryForm, EntryHeader, EntrymapRecord, FragKind, ParsedBlock,
    PushOutcome, TRAILER_SIZE,
};
use clio_types::{BlockNo, ClioError, LogFileId, Result};

use crate::service::{OpenBlock, SealedQueue, SealedVolume, Shard, SharedOpenBlock, State};
use crate::stats::Space;

/// Bound on the writes one seal spends on a block that keeps reading back
/// corrupt (a dying device, not transient corruption). A block is thus
/// displaced by at most `MAX_SEAL_ATTEMPTS - 1` addresses: how far a reader
/// looks past an invalidated block, and what the block's flag must hold.
pub(crate) const MAX_SEAL_ATTEMPTS: u32 = 8;
const _: () = assert!(MAX_SEAL_ATTEMPTS - 1 <= BlockFlags::MAX_DISPLACED as u32);

/// Largest number of blocks one vectored write carries, and so the deepest
/// the in-memory sealed queue gets: the seal that fills a batch drains it.
pub const MAX_BATCH_BLOCKS: usize = 64;

/// Bound on blocks a single record may spread over before we declare a
/// configuration bug (the fragmentation loop normally terminates long
/// before this).
const MAX_FRAG_BLOCKS: u32 = 100_000;

impl Shard {
    /// Opens a block if none is open.
    pub(crate) fn ensure_open(&self, st: &mut State) -> Result<()> {
        if st.open.is_none() {
            self.open_new_block(st)?;
        }
        Ok(())
    }

    fn open_new_block(&self, st: &mut State) -> Result<()> {
        if st.active.is_full() {
            self.switch_volume(st)
        } else {
            self.open_block_at(st)
        }
    }

    /// Finishes the active volume and continues on a fresh successor
    /// (§2.1); the catalog shard carries the catalog forward as a
    /// checkpoint.
    pub(crate) fn switch_volume(&self, st: &mut State) -> Result<()> {
        if st.open.is_some() {
            self.seal_open(st)?;
        }
        // The sealed queue belongs to the finishing volume; drain it onto
        // that volume's medium before the successor takes over.
        self.write_sealed_queue(st)?;
        let now = self.clock.now();
        let finished = std::mem::replace(&mut st.active, self.seq.extend(now)?);
        // Copy-on-write: snapshots holding the old list are unaffected.
        Arc::make_mut(&mut st.sealed).push(SealedVolume {
            vol: finished,
            pending: st.emap.pending().clone(),
        });
        st.active_index += 1;
        st.emap = clio_entrymap::EntrymapWriter::new(Geometry::new(usize::from(self.cfg.fanout)));
        st.pending_snap = None;
        // Displaced maps belong to the finished volume's tree; they live on
        // in its preserved pending state, not on the new volume.
        st.carryover.clear();
        self.open_block_at(st)?;
        // Each successor volume of the catalog shard starts with a catalog
        // checkpoint, so recovery never reads back past the newest one.
        if let Some(cat) = &st.catalog {
            let rec = cat.checkpoint();
            let header =
                EntryHeader::new(LogFileId::CATALOG, EntryForm::Timestamped, Some(now), None);
            self.push_record(st, header, &rec.encode())?;
        }
        Ok(())
    }

    /// Opens the next block of the active volume, writing any due entrymap
    /// records as its first entries (§2.1). Map records that cannot fit are
    /// displaced to following blocks.
    fn open_block_at(&self, st: &mut State) -> Result<()> {
        let r = self.open_block_at_inner(st);
        // Opening a boundary block *takes* completed-group notes out of the
        // pending maps (they now live as map records in the open block) and
        // propagates them one level up. Readers pair the pending snapshot
        // with a data end that already covers the open block, so the frozen
        // clone must advance in lockstep — otherwise the parent level hides
        // a completed sub-group whose notes the snapshot no longer holds,
        // and every entry in that sub-group goes unlocatable until the next
        // seal (found by the whole-system simulator). Dropping the clone
        // here makes the publish that exposes this block re-freeze it.
        st.pending_snap = None;
        r
    }

    fn open_block_at_inner(&self, st: &mut State) -> Result<()> {
        debug_assert!(st.open.is_none(), "open_block_at with a block already open");
        loop {
            let db = st.next_db();
            if db >= st.active.data_capacity() {
                return self.switch_volume(st);
            }
            let mut records = std::mem::take(&mut st.carryover);
            records.extend(st.emap.begin_block(db));
            let mut builder = BlockBuilder::new(self.cfg.block_size, self.clock.now());
            let mut ids = BTreeSet::new();
            let mut overflow: Vec<EntrymapRecord> = Vec::new();
            for rec in records {
                push_map_record(&mut builder, rec, &mut overflow, &self.pshard.space)?;
            }
            if builder.count() > 0 {
                builder.flags_mut().has_entrymap = true;
                ids.insert(LogFileId::ENTRYMAP);
            }
            st.open = Some(OpenBlock {
                db,
                shared: Arc::new(SharedOpenBlock::new(builder)),
                ids,
            });
            if overflow.is_empty() {
                return Ok(());
            }
            // The maps overflowed the block: seal it and continue them in
            // the next one (readers follow the `continued` flags).
            st.carryover = overflow;
            self.seal_open(st)?;
        }
    }

    /// Ensures the active volume can hold a record of `bytes` more bytes,
    /// switching to a successor volume early if it cannot — entries never
    /// fragment across volumes.
    fn ensure_volume_room(&self, st: &mut State, bytes: usize) -> Result<()> {
        let capacity = st.active.data_capacity();
        let usable = self.cfg.block_size - TRAILER_SIZE - 4;
        let blocks_needed = (bytes / usable + 2) as u64;
        if blocks_needed > capacity {
            return Err(ClioError::EntryTooLarge {
                size: bytes,
                max: (capacity as usize).saturating_mul(usable),
            });
        }
        let current = st.open.as_ref().map_or_else(|| st.next_db(), |ob| ob.db);
        if current + blocks_needed > capacity {
            self.switch_volume(st)?;
        }
        Ok(())
    }

    /// Appends one record, fragmenting it over blocks if necessary
    /// (§2.1 footnote 7). Returns (volume index, data block, slot) of the
    /// record's first fragment.
    pub(crate) fn push_record(
        &self,
        st: &mut State,
        header: EntryHeader,
        payload: &[u8],
    ) -> Result<(u32, u64, u16)> {
        if payload.len() > u32::MAX as usize {
            return Err(ClioError::EntryTooLarge {
                size: payload.len(),
                max: u32::MAX as usize,
            });
        }
        self.ensure_open(st)?;
        self.ensure_volume_room(st, header.encoded_len() + payload.len() + 16)?;
        let vol_idx = st.active_index;
        let space = &self.pshard.space;

        // Fast path: the whole record fits the open block.
        {
            let ob = st
                .open
                .as_mut()
                .expect("invariant: ensure_open left an open block in state");
            if let PushOutcome::Written(slot) = ob.shared.push(&header, payload) {
                ob.ids.insert(header.id);
                let overhead = header.encoded_len() + 2;
                space.note_entry(header.id, payload.len(), overhead);
                return Ok((vol_idx, ob.db, slot));
            }
        }

        // Fragmentation path. The chain nonce ties continuations to their
        // first fragment so a torn entry can never adopt a later entry's
        // fragments.
        let total = payload.len() as u32;
        let chain = {
            let t = header.timestamp.unwrap_or_else(|| self.clock.now()).0;
            (t as u32) ^ ((t >> 32) as u32) ^ 0x5EED_C11A
        };
        let mut first_header = header;
        first_header.frag = FragKind::First {
            total_len: total,
            chain,
        };
        let cont_header = EntryHeader {
            id: header.id,
            form: EntryForm::Minimal,
            frag: FragKind::Continuation { chain },
            timestamp: None,
            seqno: None,
        };
        let mut off = 0usize;
        let mut first: Option<(u64, u16)> = None;
        let mut overhead = 0usize;
        let mut spins = 0u32;
        loop {
            spins += 1;
            if spins > MAX_FRAG_BLOCKS {
                return Err(ClioError::Internal(
                    "fragmentation failed to make progress".into(),
                ));
            }
            self.ensure_open(st)?;
            let mut wrote = false;
            {
                let ob = st
                    .open
                    .as_mut()
                    .expect("invariant: ensure_open left an open block in state");
                let is_first = first.is_none();
                let hdr = if is_first {
                    &first_header
                } else {
                    &cont_header
                };
                let avail = ob.shared.payload_room(hdr.encoded_len());
                let remaining = payload.len() - off;
                if avail > 0 || (avail == 0 && remaining == 0) {
                    let take = avail.min(remaining);
                    // If everything still fits whole, avoid fragmenting.
                    let use_whole = is_first && take == remaining;
                    let h = if use_whole { &header } else { hdr };
                    if let PushOutcome::Written(slot) = ob.shared.push(h, &payload[off..off + take])
                    {
                        ob.ids.insert(header.id);
                        overhead += h.encoded_len() + 2;
                        if is_first {
                            first = Some((ob.db, slot));
                        }
                        off += take;
                        wrote = true;
                    }
                }
            }
            if off == payload.len() && wrote {
                break;
            }
            // Block exhausted: seal it and continue in the next.
            self.seal_open(st)?;
        }
        space.note_entry(header.id, payload.len(), overhead);
        let (db, slot) =
            first.expect("invariant: a non-empty entry always writes at least one fragment");
        Ok((vol_idx, db, slot))
    }

    /// Seals the open block into the in-memory sealed queue (the *seal*
    /// stage of the pipeline). The queue lands on the medium when it
    /// reaches a full batch (here), or with the next commit, flush or
    /// volume switch; a device error from the full-batch drain is returned
    /// with the block sealed and the unwritten suffix still queued. With
    /// append verification the seal drains and reads back its own block, so
    /// it is re-placed before any later block has an address (§2.3.2).
    pub(crate) fn seal_open(&self, st: &mut State) -> Result<()> {
        // Span guard declared inside the function: the state lock is already
        // held by the caller, and the trace ring is a leaf lock, so recording
        // on drop here adds only the benign state -> ring edge.
        let mut span = self.obs.span("seal");
        let r = self.seal_open_inner(st);
        if r.is_err() {
            span.fail("error");
        }
        drop(span);
        // The seal noted blocks in the entrymap writer; the next publish
        // re-freezes the pending clone that read snapshots share.
        st.pending_snap = None;
        r
    }

    fn seal_open_inner(&self, st: &mut State) -> Result<()> {
        let mut ob = st
            .open
            .take()
            .ok_or_else(|| ClioError::Internal("seal with no open block".into()))?;
        // The final image stays cached in the shared block, so views
        // pinned while it was open read exactly what the queue holds.
        let image = ob.shared.image();
        let padding = self.cfg.block_size - TRAILER_SIZE - ob.shared.used_bytes();
        st.sealed_queue = Arc::new(st.sealed_queue.with_pushed(ob.db, image.clone()));
        if self.cfg.verify_appends {
            if let Err(e) = self.write_verified(st, &mut ob.db, &image) {
                // Keep the writer consistent on device failure: the block
                // goes back to being open (buffered entries preserved) at
                // its current target, for a later seal to retry verified.
                st.sealed_queue = Arc::default();
                self.pshard.sealed_queue_blocks.set(0);
                st.open = Some(ob);
                return Err(e);
            }
        }
        st.emap.note_block(ob.db, ob.ids.iter().copied());
        self.pshard.space.note_sealed_block(padding, TRAILER_SIZE);
        // Bound the queue: a full batch goes out now, as the same vectored
        // write a later flush or commit would have issued for it.
        let depth = st.sealed_queue.images.len();
        self.pshard.sealed_queue_blocks.set(depth as i64);
        if depth >= MAX_BATCH_BLOCKS {
            self.write_sealed_queue(st)?;
        }
        Ok(())
    }

    /// Append verification (§2.3.2): writes the one queued block and reads
    /// it back. A block that does not read back as written is spent: it is
    /// invalidated, noted for the bad-block log (entrymap records due past
    /// it go to `carryover`), and the image re-placed at the next block,
    /// stamped with how far it has moved so a reader of the old address
    /// knows it. `db` follows the block; an error leaves it at an unburned
    /// address, where the caller reopens the block for a later seal.
    fn write_verified(&self, st: &mut State, db: &mut u64, image: &ParsedBlock) -> Result<()> {
        debug_assert_eq!(st.sealed_queue.images.len(), 1, "verified seals drain");
        let vol = st.active.clone();
        let mut image = image.clone();
        for moved in 1..=MAX_SEAL_ATTEMPTS {
            // A failed write burned nothing: the block keeps its address.
            self.write_sealed_queue(st)?;
            let read_back = vol
                .read_data_block_direct(*db)
                .map(|back| back == **image.image());
            if matches!(read_back, Ok(true)) {
                return Ok(());
            }
            let burned = vol.invalidate_data_block(*db);
            st.pending_badblocks.push(*db);
            st.emap.note_block(*db, std::iter::empty());
            let due = st.emap.begin_block(*db + 1);
            st.carryover.extend(due);
            *db += 1;
            read_back?;
            burned?;
            if *db >= vol.data_capacity() {
                return Err(ClioError::VolumeFull);
            }
            if moved < MAX_SEAL_ATTEMPTS {
                image = image.displaced(moved as u8);
                st.sealed_queue = Arc::new(SealedQueue {
                    first_db: *db,
                    images: vec![image.clone()],
                });
            }
        }
        Err(ClioError::Internal(
            "append corruption persists; giving up on this device".into(),
        ))
    }

    /// Drains the sealed queue onto the active volume in vectored writes of
    /// at most [`MAX_BATCH_BLOCKS`] blocks each. Returns the device writes
    /// it issued. On a device error the unwritten suffix (as
    /// resynchronised from the device end) is re-queued, so a later commit
    /// or flush retries it.
    pub(crate) fn write_sealed_queue(&self, st: &mut State) -> Result<u64> {
        if st.sealed_queue.images.is_empty() {
            return Ok(0);
        }
        let r = self.write_sealed_queue_inner(st);
        self.pshard
            .sealed_queue_blocks
            .set(st.sealed_queue.images.len() as i64);
        r
    }

    fn write_sealed_queue_inner(&self, st: &mut State) -> Result<u64> {
        let vol = &*st.active;
        let queue = std::mem::take(&mut st.sealed_queue);
        let mut writes = 0u64;
        let mut written = 0usize;
        for chunk in queue.images.chunks(MAX_BATCH_BLOCKS) {
            let first_db = queue.first_db + written as u64;
            if let Err(e) = vol.append_data_blocks(first_db, chunk) {
                // Torn batch: the volume resynchronised its end to what
                // actually landed. (On a tail-staging device the end can
                // overshoot by the staged block; in-tree pools never stack
                // a tail over a tearing device.)
                let landed = vol
                    .data_end()
                    .saturating_sub(first_db)
                    .min(chunk.len() as u64) as usize;
                let done = written + landed;
                st.device_blocks += landed as u64;
                st.sealed_queue = Arc::new(SealedQueue {
                    first_db: queue.first_db + done as u64,
                    images: queue.images[done..].to_vec(),
                });
                return Err(e);
            }
            writes += 1;
            written += chunk.len();
            st.device_blocks += chunk.len() as u64;
        }
        Ok(writes)
    }

    /// The commit stage of the pipeline (state lock held): makes everything
    /// buffered durable. The partial block is staged to the device's
    /// battery-backed RAM tail where there is one, otherwise (unless empty)
    /// sealed early with internal fragmentation (§2.3.1); the sealed queue
    /// is drained in batched writes and the batch metrics recorded: every
    /// block the commit handed the device, the staged tail included. On
    /// error the covered forced count is restored so a retrying leader
    /// accounts for the same appends.
    pub(crate) fn commit_locked(&self, st: &mut State) -> Result<()> {
        let covered = std::mem::take(&mut st.staged_forced);
        let before = st.device_blocks;
        let r = (|| {
            let mut tail_stage = None;
            if let Some(ob) = st.open.as_ref() {
                if st.active.supports_tail_rewrite() {
                    tail_stage = Some((ob.db, ob.shared.image()));
                } else if ob.shared.count() > 0 {
                    ob.shared.mark_sealed_early();
                    self.seal_open(st)?;
                }
            }
            // Queue first, tail second: the tail rewrite targets the block
            // right after the queued ones, and the device only accepts a
            // tail at its write-once end.
            let mut writes = self.write_sealed_queue(st)?;
            if let Some((db, img)) = tail_stage {
                st.active.rewrite_tail_data(db, img)?;
                writes += 1;
                st.device_blocks += 1;
            }
            if writes > 0 || covered > 0 {
                self.pshard.commits.inc();
                self.pshard
                    .commit_batch_blocks
                    .record(st.device_blocks - before);
                self.obs.note_writes_saved(covered, writes);
            }
            Ok(())
        })();
        if r.is_err() {
            st.staged_forced += covered;
        }
        r
    }

    /// Logs queued bad-block records (§2.3.2: the corrupted block's
    /// "location is recorded in a special log file").
    pub(crate) fn drain_badblocks(&self, st: &mut State) -> Result<()> {
        let mut guard = 0u32;
        while let Some(db) = st.pending_badblocks.pop() {
            guard += 1;
            if guard > 100_000 {
                return Err(ClioError::Internal("bad-block logging diverges".into()));
            }
            let rec = BadBlockRecord { block: BlockNo(db) };
            let header = EntryHeader::new(LogFileId::BAD_BLOCK, EntryForm::Minimal, None, None);
            self.push_record(st, header, &rec.encode())?;
        }
        Ok(())
    }
}

/// Writes one entrymap record into `builder`, splitting its per-file maps
/// into as many chunk records as fit; what cannot fit is pushed to
/// `overflow` with the preceding chunk marked `continued`.
fn push_map_record(
    builder: &mut BlockBuilder,
    rec: EntrymapRecord,
    overflow: &mut Vec<EntrymapRecord>,
    space: &Space,
) -> Result<()> {
    let per = EntrymapRecord::per_map_len(rec.bits);
    let base = EntrymapRecord::HEADER_LEN;
    let header = EntryHeader::new(LogFileId::ENTRYMAP, EntryForm::Minimal, None, None);
    let room = builder.payload_room(header.encoded_len());
    let min_needed = base + if rec.maps.is_empty() { 0 } else { per };
    if room < min_needed {
        overflow.push(rec);
        return Ok(());
    }
    let fit = if rec.maps.is_empty() {
        0
    } else {
        ((room - base) / per).min(rec.maps.len())
    };
    let mut chunk = rec;
    let rest = chunk.maps.split_off(fit);
    chunk.continued = !rest.is_empty();
    let payload = chunk.encode();
    match builder.push(&header, &payload) {
        PushOutcome::Written(_) => {
            space.note_entry(LogFileId::ENTRYMAP, payload.len(), 4);
        }
        PushOutcome::NoSpace { .. } => {
            return Err(ClioError::Internal(
                "entrymap chunk sizing disagrees with block builder".into(),
            ));
        }
    }
    if !rest.is_empty() {
        let mut remainder = chunk;
        remainder.maps = rest;
        remainder.continued = false;
        overflow.push(remainder);
    }
    Ok(())
}
