//! The log service: sharded append domains, lifecycle, and the public
//! catalog/append API.
//!
//! The service is partitioned into `ServiceConfig::shards` independent
//! append domains. Each [`Shard`] owns its own state lock, entrymap
//! writer, open block, sealed queue, commit gate and volume sequence, so
//! forced appends to different shards never contend on a lock or
//! serialize on one device write stream. The public [`LogService`] is a
//! thin router: log files are assigned to shards by their *top-level*
//! ancestor's id (hash-picked like the block cache's shards), which keeps
//! every sublog closure on a single shard. Shard 0 is the coordination
//! point: it holds the service's one catalog and logs it; the other
//! shards hold none. Every public operation takes shard 0's read snapshot
//! once, resolves and routes with its catalog, and hands it to the shard
//! it routes to for the permission check, so a catalog change takes
//! effect for appends on every shard at once: when shard 0 publishes it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use clio_obs::clock::{self, Reading};
use clio_obs::{Gauge, SpanGuard};
use clio_testkit::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use clio_testkit::sync::{ArcCell, Condvar, Mutex};

use clio_cache::BlockCache;
use clio_entrymap::{EntrymapWriter, Geometry, PendingMaps};
use clio_format::records::{CatalogRecord, PERM_APPEND};
use clio_format::{BlockBuilder, EntryForm, EntryHeader, ParsedBlock, PushOutcome};
use clio_types::{ClioError, Clock, EntryAddr, LogFileId, Result, SeqNo, Timestamp, VolumeSeqId};
use clio_volume::{DevicePool, Volume, VolumeSequence};

use crate::catalog::Catalog;
use crate::config::ServiceConfig;
use crate::obs::{InstrumentingPool, PerShard, ServiceObs};
use crate::stats::SpaceReport;

/// Bits of an `EntryAddr`'s 32-bit volume coordinate carrying the
/// per-shard volume index; the high bits carry the shard. Shard 0
/// addresses are identical to the single-domain addresses of old.
pub(crate) const SHARD_SHIFT: u32 = 24;

/// Mask selecting the per-shard volume index out of the global coordinate.
pub(crate) const LOCAL_VOLUME_MASK: u32 = (1 << SHARD_SHIFT) - 1;

/// Each shard's volume sequence gets its own block-cache device-id range.
pub(crate) const DEVICE_ID_SHIFT: u32 = 20;

/// Stamps a shard-local address with its shard, producing the global
/// address clients see.
pub(crate) fn globalize_addr(shard: u32, mut addr: EntryAddr) -> EntryAddr {
    addr.volume_index |= shard << SHARD_SHIFT;
    addr
}

/// One distinct lockdep class per shard state lock (class names must be
/// `&'static str`, so they come from a table); shards past the table
/// share a fallback class — ordering between them is still ascending by
/// construction, just not lockdep-distinguished.
const STATE_CLASSES: [&str; 8] = [
    "core.state.shard0",
    "core.state.shard1",
    "core.state.shard2",
    "core.state.shard3",
    "core.state.shard4",
    "core.state.shard5",
    "core.state.shard6",
    "core.state.shard7",
];

fn state_class(idx: u32) -> &'static str {
    STATE_CLASSES
        .get(idx as usize)
        .copied()
        .unwrap_or("core.state.shard8plus")
}

/// When an append must be durable (§2.3.1: "log entries are written
/// synchronously to the log device when forced (such as on a transaction
/// commit)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Buffer in the server's open block; durable at the next forced write
    /// or block seal.
    #[default]
    Buffered,
    /// Persist before returning — staged to battery-backed RAM when the
    /// device has one, otherwise the partial block is sealed early.
    Forced,
}

/// Per-append options.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendOpts {
    /// Durability requirement.
    pub durability: Durability,
    /// Record the service timestamp in the entry header. Optional per
    /// §2.1; costs 8 bytes. Without it the entry is still locatable to
    /// block resolution via the block's first-entry timestamp.
    pub timestamped: bool,
    /// A client sequence number for asynchronous unique identification
    /// (§2.1); implies a timestamped "full" header.
    pub seqno: Option<SeqNo>,
}

impl AppendOpts {
    /// Timestamped, buffered — the common case.
    #[must_use]
    pub fn standard() -> AppendOpts {
        AppendOpts {
            timestamped: true,
            ..AppendOpts::default()
        }
    }

    /// Timestamped and forced (synchronous).
    #[must_use]
    pub fn forced() -> AppendOpts {
        AppendOpts {
            durability: Durability::Forced,
            timestamped: true,
            seqno: None,
        }
    }

    /// Minimal 4-byte-overhead header, buffered.
    #[must_use]
    pub fn minimal() -> AppendOpts {
        AppendOpts::default()
    }

    /// Full header with a client sequence number.
    #[must_use]
    pub fn with_seqno(seqno: SeqNo) -> AppendOpts {
        AppendOpts {
            durability: Durability::Buffered,
            timestamped: true,
            seqno: Some(seqno),
        }
    }
}

/// What a client learns from a successful append: where the entry landed
/// and the service timestamp that uniquely identifies it (§2.1: "if the
/// entry is written synchronously … a client can obtain this timestamp as a
/// consequence of the write operation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receipt {
    /// The entry's address. Provisional when append verification is
    /// enabled: a block that fails verification is re-written at a
    /// following address, and reads of the old address resolve to it.
    pub addr: EntryAddr,
    /// The service timestamp assigned to the entry.
    pub timestamp: Timestamp,
}

/// The block currently being filled, as the appender and the readers
/// share it: the [`BlockBuilder`] behind a leaf mutex.
///
/// The appender (holding the shard's state lock) pushes records into it;
/// a reader that needs the block materialises the finished, CRC-carrying
/// image itself — a [`ParsedBlock`], verified by the builder that computed
/// its CRC — and caches it here, keyed by the generation it was taken at,
/// so an append costs neither a `finish()` nor a snapshot publish.
/// Records are only ever added, so a pinned [`ReadView`]'s open block only
/// grows; once the block seals, the final image stays cached and pinned
/// views keep reading it.
///
/// Lock order is `state → open_block`; readers take only `open_block`. It
/// is held for a copy of at most one block — never across device I/O,
/// another lock, or the CRC: whoever needs the image takes a reference to
/// the builder under the lock and finishes it outside, and only a push
/// that finds such a reference outstanding copies the builder (once).
///
/// Public (hidden) so the protocol model and property tests drive the
/// real object.
#[doc(hidden)]
pub struct SharedOpenBlock {
    inner: Mutex<OpenInner>,
}

struct OpenInner {
    /// Copy-on-write, so "copying the block out" is a refcount bump.
    builder: Arc<BlockBuilder>,
    /// Bumped by every mutation of `builder`; keys `image`.
    gen: u64,
    /// The finished block of `builder` as of generation `.0`.
    image: Option<(u64, ParsedBlock)>,
}

impl SharedOpenBlock {
    /// Shares `builder` (which may already hold entrymap records).
    #[must_use]
    pub fn new(builder: BlockBuilder) -> SharedOpenBlock {
        SharedOpenBlock {
            inner: Mutex::with_class(
                OpenInner {
                    builder: Arc::new(builder),
                    gen: 0,
                    image: None,
                },
                "core.open_block",
            ),
        }
    }

    /// Appends a record; it is readable as soon as this returns.
    pub fn push(&self, header: &EntryHeader, payload: &[u8]) -> PushOutcome {
        let mut g = self.inner.lock();
        let out = Arc::make_mut(&mut g.builder).push(header, payload);
        if matches!(out, PushOutcome::Written(_)) {
            g.gen += 1;
        }
        out
    }

    /// See [`BlockBuilder::payload_room`].
    #[must_use]
    pub fn payload_room(&self, header_len: usize) -> usize {
        self.inner.lock().builder.payload_room(header_len)
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn count(&self) -> u16 {
        self.inner.lock().builder.count()
    }

    /// Bytes of the block taken by records and their index slots.
    pub(crate) fn used_bytes(&self) -> usize {
        let g = self.inner.lock();
        g.builder.data_len() + 2 * usize::from(g.builder.count())
    }

    /// Flags the block as sealed before it was full (§2.3.1).
    pub(crate) fn mark_sealed_early(&self) {
        let mut g = self.inner.lock();
        Arc::make_mut(&mut g.builder).flags_mut().sealed_early = true;
        g.gen += 1;
    }

    /// The exact device image of the records pushed so far, as a block
    /// the builder verified: nobody checks its CRC again.
    ///
    /// Served from the cache when nothing was pushed since it was taken;
    /// otherwise the builder is referenced under the lock, finished (zero
    /// fill, index, CRC) outside it, and the image installed unless the
    /// block moved on meanwhile.
    #[must_use]
    pub fn image(&self) -> ParsedBlock {
        let (gen, builder) = {
            let g = self.inner.lock();
            if let Some((cached, img)) = &g.image {
                if *cached == g.gen {
                    return img.clone();
                }
            }
            (g.gen, g.builder.clone())
        };
        let img = builder.finish_parsed();
        // Released before relocking so the next push mutates in place.
        drop(builder);
        let mut g = self.inner.lock();
        if g.gen != gen {
            return img;
        }
        // First installer wins, so everyone who materialises this
        // generation — the sealer included — shares one image.
        match &g.image {
            Some((cached, first)) if *cached == gen => first.clone(),
            _ => {
                g.image = Some((gen, img.clone()));
                img
            }
        }
    }
}

/// The appender's handle on the block currently being filled.
pub(crate) struct OpenBlock {
    /// The data block this will become (may shift on verify-failure).
    pub db: u64,
    /// The builder, shared with readers through the [`ReadView`].
    pub shared: Arc<SharedOpenBlock>,
    /// Ids of log files with entries in this block.
    pub ids: BTreeSet<LogFileId>,
}

/// Blocks sealed in memory but not yet written to the device — the
/// *seal* stage of the append pipeline. The queue is shared into
/// read snapshots (so readers see sealed blocks immediately), replaced
/// copy-on-write at each seal, and drained onto the medium in one vectored
/// write when it reaches `MAX_BATCH_BLOCKS`, or by the next commit.
#[derive(Default)]
pub(crate) struct SealedQueue {
    /// The data block `images[0]` will occupy (meaningless when empty).
    pub first_db: u64,
    /// Finished blocks for the contiguous run of data blocks from
    /// `first_db`, which starts at the active volume's device end.
    pub images: Vec<ParsedBlock>,
}

impl SealedQueue {
    /// The data block just past the queue, if anything is queued.
    pub(crate) fn end_db(&self) -> Option<u64> {
        (!self.images.is_empty()).then(|| self.first_db + self.images.len() as u64)
    }

    /// The queued image of data block `db`, if it is in the queue.
    pub(crate) fn get(&self, db: u64) -> Option<&ParsedBlock> {
        self.images
            .get(usize::try_from(db.checked_sub(self.first_db)?).ok()?)
    }

    /// This queue plus one more sealed block at its end.
    pub(crate) fn with_pushed(&self, db: u64, image: ParsedBlock) -> SealedQueue {
        debug_assert!(
            self.end_db().is_none_or(|end| end == db),
            "gap in the sealed queue"
        );
        let mut images = Vec::with_capacity(self.images.len() + 1);
        images.extend_from_slice(&self.images);
        images.push(image);
        SealedQueue {
            first_db: if self.images.is_empty() {
                db
            } else {
                self.first_db
            },
            images,
        }
    }
}

/// A finished volume of a shard's sequence, read-only from here on, with
/// the entrymap pending state it ended on: its final groups have no
/// on-device maps (there is no block after them to carry one), so searches
/// of it need this in-memory state (rebuilt from the device after a crash).
#[derive(Clone)]
pub(crate) struct SealedVolume {
    pub vol: Arc<Volume>,
    pub pending: PendingMaps,
}

/// All append-side state of one shard, guarded by one lock. Reads never
/// touch this — they run against the published [`ReadView`] snapshot.
///
/// The shareable pieces (`catalog`, `sealed`) live behind `Arc`s so
/// publishing a snapshot is a refcount bump; mutations go through
/// [`Arc::make_mut`], copy-on-write, so an in-flight reader's snapshot is
/// never modified underneath it.
pub(crate) struct State {
    /// The catalog, on the catalog shard (which logs it) and nowhere else.
    /// It changes only under this lock, so the checkpoint a volume switch
    /// writes always matches the catalog records written before it.
    pub catalog: Option<Arc<Catalog>>,
    pub emap: EntrymapWriter,
    pub open: Option<OpenBlock>,
    /// The finished (non-active) volumes, by volume index; grows by one at
    /// each volume switch.
    pub sealed: Arc<Vec<SealedVolume>>,
    /// The active volume. The appender reads it as a field: an append
    /// takes neither the sequence's lock nor a reference count.
    pub active: Arc<Volume>,
    /// The active volume's index, `sealed.len()`.
    pub active_index: u32,
    /// Frozen clone of `emap.pending()` shared into snapshots. Dropped
    /// whenever a block seals or opens (the only times the pending maps
    /// change) and re-frozen by the next publish — under the same lock
    /// hold, so a snapshot's pending maps always match its open block and
    /// `data_end`.
    pub pending_snap: Option<Arc<PendingMaps>>,
    /// Entrymap records displaced by invalidated blocks, to be written in
    /// the next opened block (§2.3.2).
    pub carryover: Vec<clio_format::EntrymapRecord>,
    /// Invalidated blocks awaiting a bad-block log record.
    pub pending_badblocks: Vec<u64>,
    /// Blocks sealed in memory, awaiting a vectored write; at most
    /// `MAX_BATCH_BLOCKS` deep (with append verification, empty outside a
    /// seal). Shared into snapshots; replaced, never mutated.
    pub sealed_queue: Arc<SealedQueue>,
    /// Forced appends staged since the last commit — what the commit
    /// "covers", for the forced-writes-saved metric.
    pub staged_forced: u64,
    /// Monotone commit sequence: bumped once per staged forced append (or
    /// forced batch); a commit makes every seq up to its snapshot durable.
    pub forced_seq: u64,
    /// Blocks this shard has handed to the device so far. An operation's
    /// own share is the difference across its lock hold.
    pub device_blocks: u64,
    /// The snapshot most recently published (what the shard's view cell
    /// holds), kept here so that deciding whether to republish never
    /// touches the cell readers are taking their snapshots from.
    pub published: Arc<ReadView>,
}

impl State {
    /// The data block the next opened block will occupy: past any queued
    /// (sealed-in-memory) blocks, which the device end does not yet
    /// reflect.
    pub(crate) fn next_db(&self) -> u64 {
        self.sealed_queue
            .end_db()
            .unwrap_or_else(|| self.active.data_end())
    }
}

/// A snapshot of everything the read path needs, published via an
/// atomic-swap cell whenever one of its fields would differ. Everything
/// in it is immutable except the open block, which is shared with the
/// appender and only ever grows — so a buffered append that stays inside
/// the open block is visible to readers without a publish, and an entry
/// is readable no later than its receipt is returned (possibly earlier:
/// a staged forced entry can be read before its commit).
pub(crate) struct ReadView {
    /// The catalog as of the snapshot; `None` off the catalog shard.
    pub catalog: Option<Arc<Catalog>>,
    /// The finished (non-active) volumes, by volume index.
    pub sealed: Arc<Vec<SealedVolume>>,
    /// The active (writable) volume. Reads borrow their volume from the
    /// snapshot — this one or a sealed one.
    pub active: Arc<Volume>,
    /// The active volume's index, `sealed.len()`.
    pub active_index: u32,
    /// The active volume's pending entrymap state.
    pub active_pending: Arc<PendingMaps>,
    /// The active volume's sealed-data watermark at snapshot time.
    pub active_data_end: u64,
    /// The open block and its data block number, if one is open.
    pub open: Option<(u64, Arc<SharedOpenBlock>)>,
    /// Blocks sealed in memory but not yet on the device (group-commit
    /// queue). Readers serve these exactly like sealed device blocks.
    pub queued: Arc<SealedQueue>,
}

impl ReadView {
    /// The catalog as of the snapshot. Catalog-shard views only.
    pub(crate) fn catalog(&self) -> &Catalog {
        self.catalog
            .as_deref()
            .expect("invariant: only the catalog shard's view carries the catalog")
    }
}

/// The leader/follower commit gate. A forced appender announces itself
/// ([`Arrival`]), stages its entry under the state lock, then waits here:
/// the first waiter to find no commit in flight becomes the *leader*. It
/// waits (lock-free, bounded) for every announced arrival to finish
/// staging, drains the sealed queue plus the partial block in one vectored
/// device write, advances `committed` to the commit-seq snapshot, and
/// releases every follower whose sequence number it covered.
///
/// `committed` and `committing` are written only with `m` held — that is
/// what keeps leaders exclusive and a parking follower's check race-free —
/// but read without it: a follower polls them ([`GATE_POLL_BUDGET`]) before
/// it pays for a park, and returns without the mutex once it is covered.
pub(crate) struct CommitGate {
    pub m: Mutex<CommitClock>,
    pub cv: Condvar,
    /// Highest forced-append sequence number made durable so far.
    /// `Release`-stored after the device write returned; the `Acquire`
    /// load that covers a follower's sequence number is its acknowledgement.
    pub committed: AtomicU64,
    /// Whether a leader is between its election and publishing its result.
    pub committing: AtomicBool,
}

pub(crate) struct CommitClock {
    /// Followers inside `cv.wait`, bumped and dropped with `m` held. A
    /// leader reads it in the same hold that clears `committing` and skips
    /// `notify_all` (a futex syscall, waiter or not) at zero: a follower
    /// parks only after seeing `committing` under `m`, so it either was
    /// counted before that hold or finds the flag already clear.
    pub waiters: usize,
}

/// Bound, in polls, on each of the gate's two lock-free waits: the leader's
/// for announced arrivals and a follower's for the commit in flight. Sized
/// to what parking instead would cost — the classic spin-then-park bound:
/// polling for at most the price of a park is within 2x of optimal whatever
/// device sits below. Here the budget runs about 25 us (256 spins of ~15 ns,
/// then 64 yields of ~0.3 us) against a condvar round trip of 31-34 us
/// between two vCPUs (`sync/park_unpark` in `benches/micro.rs`; 2-3 us when
/// the scheduler keeps both threads on one). Counted in polls, not clock
/// reads, so each wait is a finite sequence of scheduling points under the
/// model checker.
const GATE_POLL_BUDGET: u32 = 320;

/// Polls that `spin_loop()`; each further one yields the CPU, so on a
/// single-core host the thread being waited for gets to run.
const GATE_SPIN_POLLS: u32 = 256;

/// One poll's pause, and a model-checker scheduling point: the `arriving`
/// gauge a leader polls is bookkeeping the checker does not schedule
/// around, so without one the appender it waits for could never run.
fn gate_pause(polls: u32) {
    clio_testkit::check::yield_point();
    if polls < GATE_SPIN_POLLS {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// A forced append on its way to the state lock, counted in the shard's
/// `arriving` gauge from before it queues on that lock until it has staged
/// or failed. `arriving > 0` tells a commit leader that an entry is
/// microseconds from the open block; it is a hint (`Relaxed`) that orders
/// nothing — the state lock still decides what a commit covers.
struct Arrival<'a>(&'a Gauge);

impl<'a> Arrival<'a> {
    /// Counts a forced append in; a buffered one announces nothing. The
    /// first thing an append does, ahead of its span bookkeeping: the time
    /// from an appender's announcement to its own check of the gauge as
    /// commit leader is the window in which the appenders beside it must
    /// announce to ride its seal, so nothing that can wait goes before it.
    fn announce(arriving: &'a Gauge, durability: Durability) -> Option<Arrival<'a>> {
        matches!(durability, Durability::Forced).then(|| {
            arriving.add(1);
            Arrival(arriving)
        })
    }
}

impl Drop for Arrival<'_> {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// One independent append domain: a full single-writer log engine — state
/// lock, entrymap writer, open block, sealed queue, commit gate, read
/// snapshot and volume sequence. The pre-sharding `LogService` *was* this
/// struct; the public [`LogService`] now routes between several of them.
pub(crate) struct Shard {
    /// This shard's index within the service (0 = catalog shard).
    pub(crate) idx: u32,
    pub(crate) seq: Arc<VolumeSequence>,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) cfg: ServiceConfig,
    pub(crate) obs: Arc<ServiceObs>,
    /// This shard's metric series.
    pub(crate) pshard: PerShard,
    pub(crate) state: Mutex<State>,
    /// The current read snapshot; reads `get` it and never lock `state`.
    pub(crate) view: ArcCell<ReadView>,
    /// Group-commit leader election and completion signalling.
    pub(crate) commit: CommitGate,
}

/// The replayed state a shard is assembled around: empty for a fresh
/// `create`, read back from the media during recovery.
pub(crate) struct ShardSeed {
    /// The catalog, for the catalog shard only.
    pub catalog: Option<Catalog>,
    pub sealed_pendings: Vec<PendingMaps>,
    pub active_pending: Option<PendingMaps>,
}

impl ShardSeed {
    /// The seed for brand-new shard `idx`: nothing replayed.
    pub(crate) fn empty(idx: u32) -> ShardSeed {
        ShardSeed {
            catalog: (idx == 0).then(Catalog::new),
            sealed_pendings: Vec::new(),
            active_pending: None,
        }
    }
}

impl Shard {
    /// Stitches a shard together from its parts (used by `create` and by
    /// recovery).
    pub(crate) fn assemble(
        idx: u32,
        seq: Arc<VolumeSequence>,
        cfg: ServiceConfig,
        clock: Arc<dyn Clock>,
        obs: Arc<ServiceObs>,
        seed: ShardSeed,
    ) -> Shard {
        let ShardSeed {
            catalog,
            sealed_pendings,
            active_pending,
        } = seed;
        let geo = Geometry::new(usize::from(cfg.fanout));
        let active = seq.active();
        let active_index = active.label().volume_index;
        debug_assert_eq!(sealed_pendings.len(), active_index as usize);
        let sealed: Arc<Vec<SealedVolume>> = Arc::new(
            (0..active_index)
                .zip(sealed_pendings)
                .map(|(v, pending)| SealedVolume {
                    vol: seq
                        .volume(v)
                        .expect("invariant: every index below the active volume's is mounted"),
                    pending,
                })
                .collect(),
        );
        let emap = match active_pending {
            Some(p) => EntrymapWriter::from_pending(p, active.data_end()),
            None => EntrymapWriter::new(geo),
        };
        let catalog = catalog.map(Arc::new);
        let pending_snap = Arc::new(emap.pending().clone());
        let published = Arc::new(ReadView {
            catalog: catalog.clone(),
            sealed: sealed.clone(),
            active: active.clone(),
            active_index,
            active_pending: pending_snap.clone(),
            active_data_end: active.data_end(),
            open: None,
            queued: Arc::default(),
        });
        let view = ArcCell::new(published.clone());
        let pshard = obs.per_shard(idx);
        Shard {
            idx,
            seq,
            clock,
            cfg,
            obs,
            pshard,
            // Held across device writes by design: the appender (or the
            // group-commit leader committing on behalf of followers)
            // owns the append point end to end. One lockdep class per
            // shard proves cross-shard acquisition stays ascending.
            state: Mutex::with_class_io(
                State {
                    catalog,
                    emap,
                    open: None,
                    sealed,
                    active,
                    active_index,
                    pending_snap: Some(pending_snap),
                    carryover: Vec::new(),
                    pending_badblocks: Vec::new(),
                    sealed_queue: Arc::default(),
                    staged_forced: 0,
                    forced_seq: 0,
                    device_blocks: 0,
                    published,
                },
                state_class(idx),
            ),
            view,
            commit: CommitGate {
                m: Mutex::with_class(CommitClock { waiters: 0 }, "core.commit_gate"),
                cv: Condvar::new(),
                committed: AtomicU64::new(0),
                committing: AtomicBool::new(false),
            },
        }
    }

    /// Publishes a fresh [`ReadView`] if the current one no longer matches
    /// the append-side state. Called (with the state lock held) at the end
    /// of every mutating operation; every field is an `Arc` the state
    /// replaces on change or a scalar, so the comparison is a handful of
    /// pointer compares and a buffered append that stays inside the open
    /// block publishes nothing.
    pub(crate) fn publish_view(&self, st: &mut State) {
        let active_data_end = st.active.data_end();
        let pending = st
            .pending_snap
            .get_or_insert_with(|| Arc::new(st.emap.pending().clone()));
        let cur = &st.published;
        let same_open = match (&cur.open, &st.open) {
            (None, None) => true,
            (Some((db, blk)), Some(ob)) => *db == ob.db && Arc::ptr_eq(blk, &ob.shared),
            _ => false,
        };
        if same_open
            && cur.active_data_end == active_data_end
            && cur.active_index == st.active_index
            && Arc::ptr_eq(&cur.queued, &st.sealed_queue)
            && Arc::ptr_eq(&cur.active_pending, pending)
            && cur.catalog.as_ref().map(Arc::as_ptr) == st.catalog.as_ref().map(Arc::as_ptr)
            && Arc::ptr_eq(&cur.sealed, &st.sealed)
        {
            return;
        }
        st.published = Arc::new(ReadView {
            catalog: st.catalog.clone(),
            sealed: st.sealed.clone(),
            active: st.active.clone(),
            active_index: st.active_index,
            active_pending: pending.clone(),
            active_data_end,
            open: st.open.as_ref().map(|ob| (ob.db, ob.shared.clone())),
            queued: st.sealed_queue.clone(),
        });
        self.view.set(st.published.clone());
        self.obs.note_view_publish();
    }

    /// The current read snapshot.
    pub(crate) fn read_view(&self) -> Arc<ReadView> {
        self.view.get()
    }

    /// Prepares a catalog record against the live catalog, logs it durably
    /// (§2.2: before the change is acknowledged), applies it and
    /// republishes the read snapshot, all in one state-lock hold; returns
    /// the record. Catalog shard only.
    pub(crate) fn apply_catalog_change(
        &self,
        prepare: impl FnOnce(&Catalog) -> Result<CatalogRecord>,
    ) -> Result<CatalogRecord> {
        let mut st = self.state.lock();
        let r = (|| {
            let mut cat = st
                .catalog
                .clone()
                .expect("invariant: catalog changes run on the catalog shard");
            let rec = prepare(&cat)?;
            self.append_catalog_record(&mut st, &rec)?;
            Arc::make_mut(&mut cat).apply(&rec)?;
            st.catalog = Some(cat);
            Ok(rec)
        })();
        self.publish_view(&mut st);
        r
    }

    /// Appends `data` as one entry of log file `id` on this shard, checked
    /// against the catalog of `snap`, the operation's catalog-shard
    /// snapshot. It is released under the lock once the entry is staged.
    /// Held through a forced append's commit wait instead, it keeps alive
    /// the view the commit replaces, and the appender, not the leader,
    /// frees that view, after its commit: on `txn_forced` that cost 29 %
    /// of the appends per second and raised `write_amp` 2.66 → 3.44.
    pub(crate) fn append(
        &self,
        snap: Arc<ReadView>,
        id: LogFileId,
        data: &[u8],
        opts: AppendOpts,
    ) -> Result<Receipt> {
        let arrival = Arrival::announce(&self.pshard.arriving, opts.durability);
        let start = clock::read();
        let mut span = self.obs.span_at("append", start);
        span.set_target(u64::from(id.0));
        span.attr("bytes", data.len() as u64);
        span.attr("shard", u64::from(self.idx));
        let (r, latency) = self.stage_and_commit(span, start, arrival, 1, move |st| {
            self.append_locked(st, snap.catalog(), id, data, opts)
        });
        self.obs.note_append(self.idx, id, latency, r.is_ok());
        r
    }

    /// The one append body, shared by single appends and batches: stage
    /// `entries` entries into the open block under the (short) state lock,
    /// republish the read snapshot, and — for a forced append — wait at
    /// the commit gate until a leader has made them durable (a forced append
    /// that staged cleanly leaves write and republish to its leader).
    /// `arrival` is the caller's announcement, `Some` exactly when the
    /// append is forced; it is withdrawn under the lock, staged or failed.
    /// `span` is the caller's root span, opened at `start`. It gets a
    /// `blocks` attribute (the blocks this call itself wrote to the
    /// device, staging or leading) and is closed here; the returned
    /// duration is the call's latency, from `start` to that close.
    ///
    /// Phases share the readings at their boundaries: a forced append's
    /// `stage` child opens at `start`, its `commit_gate` opens where
    /// `stage` closes, and the gate closes with the root. A buffered
    /// append only stages, so it records no `stage` child: its root is
    /// that phase, and it reads the clock twice.
    fn stage_and_commit<T>(
        &self,
        mut span: SpanGuard<'_>,
        start: Reading,
        arrival: Option<Arrival<'_>>,
        entries: u64,
        stage: impl FnOnce(&mut State) -> Result<T>,
    ) -> (Result<T>, Duration) {
        let forced = arrival.is_some();
        // Opened before the lock guard: the stage span covers lock
        // acquisition and records only after the lock is released.
        let mut phase = forced.then(|| self.obs.span_at("stage", start));
        let (r, my_seq, mut blocks) = {
            let mut st = self.state.lock();
            let before = st.device_blocks;
            let r = stage(&mut st);
            // Still under the lock: a leader that reads zero and then takes
            // the lock finds every announced entry staged.
            drop(arrival);
            if forced && r.is_ok() {
                // One commit sequence number per durability point, however
                // many entries it covers.
                st.forced_seq += 1;
                st.staged_forced += entries;
            } else {
                // Republish even on failure: a failed append may still have
                // sealed blocks (fragmentation) the snapshot should reflect.
                self.publish_view(&mut st);
            }
            (r, st.forced_seq, st.device_blocks - before)
        };
        let r = r.and_then(|out| {
            if let Some(stage) = phase.take() {
                let gate = phase.insert(stage.then("commit_gate"));
                self.commit_wait(my_seq, gate, &mut blocks)?;
            }
            Ok(out)
        });
        span.attr("blocks", blocks);
        if r.is_err() {
            span.fail("error");
        }
        let end = clock::read();
        if let Some(phase) = phase {
            phase.close_at(end);
        }
        (r, span.close_at(end))
    }

    /// Leader/follower commit. Blocks until every forced append staged at
    /// or before `my_seq` is durable. The first waiter that finds no
    /// commit in flight becomes the leader: it waits for announced arrivals
    /// to stage, drains the sealed queue and the current partial block in
    /// one batched device write (added to `blocks`), advances the committed
    /// watermark to the staging sequence it observed, and releases all
    /// followers it covered. A lone forced appender polls nothing and wakes
    /// no one.
    ///
    /// `gate_span` is this append's `commit_gate` span, one per forced
    /// append, leader or follower: its duration is the full time spent
    /// waiting for durability, and the role and wait attributes set here
    /// say which side of the gate this thread took and what the wait cost
    /// it. The caller closes it.
    fn commit_wait(
        &self,
        my_seq: u64,
        gate_span: &mut SpanGuard<'_>,
        blocks: &mut u64,
    ) -> Result<()> {
        gate_span.attr("shard", u64::from(self.idx));
        let gate = &self.commit;
        let covered = || gate.committed.load(Ordering::Acquire) >= my_seq;
        let (mut led, mut polled, mut parked) = (false, false, false);
        let result = loop {
            // Follow without the mutex: while the commit in flight may
            // cover us, poll for about as long as a park would cost.
            let mut polls = 0;
            while polls < GATE_POLL_BUDGET && !covered() && gate.committing.load(Ordering::Acquire)
            {
                gate_pause(polls);
                polls += 1;
            }
            polled |= polls > 0;
            if covered() {
                break Ok(());
            }
            let mut clock = gate.m.lock();
            if covered() {
                break Ok(());
            }
            if gate.committing.load(Ordering::Acquire) {
                // The commit outlasted the budget: park until it is done.
                if !parked {
                    parked = true;
                    self.pshard.followers_parked.inc();
                }
                clock.waiters += 1;
                clock = gate.cv.wait(clock);
                clock.waiters -= 1;
                continue;
            }
            gate.committing.store(true, Ordering::Release);
            drop(clock);
            led = true;
            self.pshard.leader_elections.inc();
            self.await_arrivals();
            let (result, target) = {
                let mut st = self.state.lock();
                let target = st.forced_seq;
                gate_span.attr("batch_forced", st.staged_forced);
                let before = st.device_blocks;
                let r = self.commit_locked(&mut st);
                *blocks += st.device_blocks - before;
                // Publish once per batch. (The followers' entries have been
                // readable through the shared open block since they were
                // staged; this exposes the sealed state they are durable in.)
                let _publish = self.obs.span("publish");
                self.publish_view(&mut st);
                (r, target)
            };
            let clock = gate.m.lock();
            if result.is_ok() {
                // After the device write returned: durability precedes
                // every acknowledgement read off this store.
                gate.committed.fetch_max(target, Ordering::Release);
            }
            gate.committing.store(false, Ordering::Release);
            let parked = clock.waiters > 0;
            drop(clock);
            if parked {
                gate.cv.notify_all();
            }
            // `target` was read after this append staged, so it covers it.
            break result;
        };
        if polled && !parked && !led {
            self.pshard.followers_polled.inc();
        }
        gate_span.attr_str("role", if led { "leader" } else { "follower" });
        let wait = match (parked, polled) {
            (true, _) => "parked",
            (false, true) => "polled",
            (false, false) => "none",
        };
        gate_span.attr_str("wait", wait);
        if result.is_err() {
            gate_span.fail("error");
        }
        result
    }

    /// The leader's wait, with `committing` set and no lock held, for every
    /// announced forced append to finish staging: those entries then ride
    /// this commit's block instead of sealing one of their own. Returns at
    /// once when nothing is announced; gives up after [`GATE_POLL_BUDGET`]
    /// polls, so a descheduled arrival costs the batch a bounded delay.
    fn await_arrivals(&self) {
        let arriving = &self.pshard.arriving;
        if arriving.get() == 0 {
            return;
        }
        self.pshard.arrival_waits.inc();
        for polls in 0..GATE_POLL_BUDGET {
            gate_pause(polls);
            if arriving.get() == 0 {
                return;
            }
        }
        self.pshard.arrival_timeouts.inc();
    }

    /// Stages one client entry into the open block (state lock held),
    /// after checking `id`'s attributes in `cat`. Durability is the
    /// caller's business: see [`Shard::stage_and_commit`].
    fn append_locked(
        &self,
        st: &mut State,
        cat: &Catalog,
        id: LogFileId,
        data: &[u8],
        opts: AppendOpts,
    ) -> Result<Receipt> {
        let attrs = cat.attrs(id)?;
        if id.is_reserved() {
            return Err(ClioError::PermissionDenied(format!(
                "log file {id} is service-owned"
            )));
        }
        if attrs.sealed {
            return Err(ClioError::ReadOnly);
        }
        if attrs.perms & PERM_APPEND == 0 {
            return Err(ClioError::PermissionDenied(cat.path_of(id)?));
        }
        let now = self.clock.now();
        let form = match (opts.timestamped || opts.seqno.is_some(), opts.seqno) {
            (_, Some(_)) => EntryForm::Full,
            (true, None) => EntryForm::Timestamped,
            (false, None) => EntryForm::Minimal,
        };
        let header = EntryHeader::new(
            id,
            form,
            matches!(form, EntryForm::Timestamped | EntryForm::Full).then_some(now),
            opts.seqno,
        );
        let (vol_idx, db, slot) = self.push_record(st, header, data)?;
        let addr = EntryAddr::new(vol_idx, clio_types::BlockNo(db), slot);
        self.drain_badblocks(st)?;
        Ok(Receipt {
            addr,
            timestamp: now,
        })
    }

    /// Forces any buffered entries on this shard to stable storage.
    pub(crate) fn flush(&self) -> Result<()> {
        let _span = self.obs.span("flush");
        let mut st = self.state.lock();
        let r = (|| {
            self.commit_locked(&mut st)?;
            self.drain_badblocks(&mut st)
        })();
        self.publish_view(&mut st);
        r
    }

    /// Seals the open block outright (used by tests and volume hygiene).
    /// Also drains the sealed queue so the seal lands on the device.
    pub(crate) fn seal_current_block(&self) -> Result<()> {
        let mut st = self.state.lock();
        let r = (|| {
            if st.open.is_some() {
                self.seal_open(&mut st)?;
            }
            self.write_sealed_queue(&mut st)?;
            self.drain_badblocks(&mut st)
        })();
        self.publish_view(&mut st);
        r
    }

    /// Appends one entry per resolved `(id, payload)` item on this shard
    /// (every id must route here), each checked against the catalog of
    /// `snap`, which is released under the lock like [`Shard::append`]'s.
    /// Entries are staged under a single state-lock hold, and a forced
    /// batch pays for **one** durability point covering every item.
    pub(crate) fn append_batch(
        &self,
        snap: Arc<ReadView>,
        items: &[(LogFileId, &[u8])],
        opts: AppendOpts,
    ) -> Result<Vec<Receipt>> {
        let arrival = Arrival::announce(&self.pshard.arriving, opts.durability);
        let start = clock::read();
        let mut span = self.obs.span_at("append_batch", start);
        span.attr("entries", items.len() as u64);
        span.attr("shard", u64::from(self.idx));
        // Items up to and including the one that failed, if any.
        let mut tried = 0;
        let entries = items.len() as u64;
        let (r, latency) = self.stage_and_commit(span, start, arrival, entries, |st| {
            // Moved in, so it is released under the lock on every path.
            let snap = snap;
            let mut receipts = Vec::with_capacity(items.len());
            for &(id, data) in items {
                tried += 1;
                receipts.push(self.append_locked(st, snap.catalog(), id, data, opts)?);
            }
            Ok(receipts)
        });
        for &(id, _) in &items[..tried] {
            self.obs.note_append(self.idx, id, latency, r.is_ok());
        }
        r
    }

    /// Writes a catalog record durably (forced, timestamped).
    fn append_catalog_record(&self, st: &mut State, rec: &CatalogRecord) -> Result<()> {
        let now = self.clock.now();
        let header = EntryHeader::new(LogFileId::CATALOG, EntryForm::Timestamped, Some(now), None);
        self.push_record(st, header, &rec.encode())?;
        // Committed directly under the state lock (not through the gate):
        // catalog changes are rare and already serialized with any commit
        // leader by the lock itself.
        self.commit_locked(st)
    }
}

/// The Clio log service.
///
/// See the crate docs for the architecture; constructors are
/// [`LogService::create`] (fresh volume sequences, one per shard) and
/// [`LogService::recover`] (in [`crate::recovery`]).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use clio_core::service::{AppendOpts, LogService};
/// use clio_core::ServiceConfig;
/// use clio_types::{SystemClock, VolumeSeqId};
/// use clio_volume::MemDevicePool;
///
/// let svc = LogService::create(
///     VolumeSeqId(1),
///     Arc::new(MemDevicePool::new(1024, 1 << 12)),
///     ServiceConfig::default(),
///     Arc::new(SystemClock),
/// )?;
/// svc.create_log("/events")?;
/// let receipt = svc.append_path("/events", b"hello", AppendOpts::forced())?;
/// let entry = svc.read_entry(receipt.addr)?;
/// assert_eq!(entry.data, b"hello");
///
/// let mut cursor = svc.cursor("/events")?;
/// assert_eq!(cursor.collect_remaining()?.len(), 1);
/// # Ok::<(), clio_types::ClioError>(())
/// ```
pub struct LogService {
    /// The append domains, shard 0 first (the catalog shard).
    pub(crate) shards: Vec<Arc<Shard>>,
    pub(crate) cfg: ServiceConfig,
    pub(crate) obs: Arc<ServiceObs>,
}

impl LogService {
    /// Creates a service on fresh volume sequences — one per configured
    /// shard, carved from the same device pool. Shard `i` uses sequence id
    /// `seq_id + i`.
    pub fn create(
        seq_id: VolumeSeqId,
        pool: Arc<dyn DevicePool>,
        cfg: ServiceConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<LogService> {
        cfg.validate()?;
        if let Some(avail) = pool.capacity_hint() {
            if cfg.shards as u64 > avail {
                return Err(ClioError::BadConfig(format!(
                    "{} shards need {} fresh volumes but the pool can supply only {avail}",
                    cfg.shards, cfg.shards
                )));
            }
        }
        let obs = ServiceObs::new(cfg.trace_events);
        let pool: Arc<dyn DevicePool> = Arc::new(InstrumentingPool::new(pool, obs.clone()));
        let cache = Arc::new(BlockCache::with_shards(cfg.cache_blocks, cfg.cache_shards));
        obs.attach_cache(&cache);
        let mut shards = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let seq = Arc::new(VolumeSequence::create(
                VolumeSeqId(seq_id.0 + i as u64),
                cache.clone(),
                pool.clone(),
                (i as u32) << DEVICE_ID_SHIFT,
                cfg.block_size,
                cfg.fanout,
                clock.now(),
            )?);
            shards.push(Arc::new(Shard::assemble(
                i as u32,
                seq,
                cfg.clone(),
                clock.clone(),
                obs.clone(),
                ShardSeed::empty(i as u32),
            )));
        }
        Ok(LogService { shards, cfg, obs })
    }

    /// The routing mask (`shards - 1`; shard counts are powers of two).
    pub(crate) fn route_mask(&self) -> usize {
        self.shards.len() - 1
    }

    /// The catalog shard's current read snapshot, whose catalog is the
    /// service's one catalog. A public operation takes it once, then
    /// resolves, routes and checks permissions against it.
    pub(crate) fn catalog_view(&self) -> Arc<ReadView> {
        self.shards[0].read_view()
    }

    /// The append domain `id`'s entries route to (reserved and unknown ids
    /// answer 0). Stable for a given id: routing follows the top-level
    /// ancestor, assigned at creation.
    #[must_use]
    pub fn shard_of(&self, id: LogFileId) -> u32 {
        self.catalog_view().catalog().route(id, self.route_mask()) as u32
    }

    /// Splits a global address into (shard index, shard-local address).
    pub(crate) fn localize_addr(&self, addr: EntryAddr) -> Result<(usize, EntryAddr)> {
        let shard = (addr.volume_index >> SHARD_SHIFT) as usize;
        if shard >= self.shards.len() {
            return Err(ClioError::NotFound(format!(
                "entry {addr}: no shard {shard}"
            )));
        }
        let mut local = addr;
        local.volume_index &= LOCAL_VOLUME_MASK;
        Ok((shard, local))
    }

    fn globalize_receipt(shard: usize, mut r: Receipt) -> Receipt {
        r.addr = globalize_addr(shard as u32, r.addr);
        r
    }

    /// Test hook: runs `f` while every shard's append-side state mutex is
    /// held (acquired in ascending shard order — the service-wide lock
    /// order). The concurrency tests use this to prove the read path never
    /// acquires an append lock — readers must make progress inside `f`.
    #[doc(hidden)]
    pub fn while_append_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        fn lock_all<R>(shards: &[Arc<Shard>], f: impl FnOnce() -> R) -> R {
            match shards.split_first() {
                None => f(),
                Some((s, rest)) => {
                    let _g = s.state.lock();
                    lock_all(rest, f)
                }
            }
        }
        lock_all(&self.shards, f)
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Number of independent append domains.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The volume sequence backing shard 0 (the catalog shard) — with a
    /// single-shard configuration, the service's only sequence.
    #[must_use]
    pub fn volumes(&self) -> &Arc<VolumeSequence> {
        &self.shards[0].seq
    }

    /// The shared block cache (exposed for cache-behaviour experiments).
    #[must_use]
    pub fn cache(&self) -> Arc<BlockCache<ParsedBlock>> {
        self.shards[0].seq.cache().clone()
    }

    // ------------------------------------------------------------------
    // Catalog operations (§2.2).
    // ------------------------------------------------------------------

    /// Creates a log file at `path`; every ancestor component must already
    /// exist (`create_log("/mail/smith")` needs `/mail`). The new log file
    /// is a sublog of its parent (§2.1). The creation is durably logged on
    /// the catalog shard.
    pub fn create_log(&self, path: &str) -> Result<LogFileId> {
        let mut span = self.obs.span("create_log");
        let r = self.create_log_inner(path);
        match &r {
            Ok(id) => {
                span.set_target(u64::from(id.0));
                self.obs.note_create();
            }
            Err(_) => span.fail("error"),
        }
        r
    }

    fn create_log_inner(&self, path: &str) -> Result<LogFileId> {
        // Validate the whole path up front so aliases like "//x" are
        // rejected rather than silently creating "/x".
        let trimmed = path
            .strip_prefix('/')
            .ok_or_else(|| ClioError::BadPath(path.to_owned()))?;
        if trimmed.is_empty() || trimmed.split('/').any(str::is_empty) {
            return Err(ClioError::BadPath(path.to_owned()));
        }
        let (parent_path, name) = match path.rfind('/') {
            Some(i) => (&path[..i], &path[i + 1..]),
            None => ("", path),
        };
        let shard = &self.shards[0];
        let rec = shard.apply_catalog_change(|cat| {
            let parent = cat.resolve(parent_path)?;
            cat.prepare_create(parent, name, shard.clock.now())
        })?;
        match rec {
            CatalogRecord::Create(a) => Ok(a.id),
            _ => unreachable!("prepare_create returns Create"),
        }
    }

    /// Resolves a path to a log file id (snapshot read; lock-free).
    pub fn resolve(&self, path: &str) -> Result<LogFileId> {
        self.catalog_view().catalog().resolve(path)
    }

    /// The display path of a log file (snapshot read).
    pub fn path_of(&self, id: LogFileId) -> Result<String> {
        self.catalog_view().catalog().path_of(id)
    }

    /// Names of the direct sublogs of `path` (snapshot read).
    pub fn list(&self, path: &str) -> Result<Vec<String>> {
        let view = self.catalog_view();
        let cat = view.catalog();
        let id = cat.resolve(path)?;
        let mut names: Vec<String> = cat.children(id).map(|a| a.name.clone()).collect();
        names.retain(|n| !n.starts_with('.') && !n.is_empty());
        names.sort();
        Ok(names)
    }

    /// A snapshot of the attributes of `id`.
    pub fn attrs(&self, id: LogFileId) -> Result<clio_format::LogFileAttrs> {
        Ok(self.catalog_view().catalog().attrs(id)?.clone())
    }

    /// Seals a log file against further appends.
    pub fn seal_log(&self, id: LogFileId) -> Result<()> {
        self.catalog_change(|cat| {
            cat.attrs(id)?;
            Ok(CatalogRecord::Seal { id })
        })
    }

    /// Changes a log file's permissions.
    pub fn set_perms(&self, id: LogFileId, perms: u16) -> Result<()> {
        self.catalog_change(|cat| {
            cat.attrs(id)?;
            Ok(CatalogRecord::SetPerms { id, perms })
        })
    }

    /// Renames a log file (its place in the hierarchy is unchanged).
    pub fn rename(&self, id: LogFileId, name: &str) -> Result<()> {
        self.catalog_change(|cat| cat.prepare_rename(id, name))
    }

    /// Prepares a catalog record on the catalog shard, logs it durably
    /// there and applies it: one state-lock hold, whatever shard the log
    /// file routes to.
    fn catalog_change(
        &self,
        prepare: impl FnOnce(&Catalog) -> Result<CatalogRecord>,
    ) -> Result<()> {
        self.shards[0].apply_catalog_change(prepare).map(drop)
    }

    // ------------------------------------------------------------------
    // Appending.
    // ------------------------------------------------------------------

    /// Appends `data` as one log entry of log file `id`, routed to the
    /// log file's shard.
    pub fn append(&self, id: LogFileId, data: &[u8], opts: AppendOpts) -> Result<Receipt> {
        self.append_in(self.catalog_view(), id, data, opts)
    }

    /// Appends to the log file named by `path`.
    pub fn append_path(&self, path: &str, data: &[u8], opts: AppendOpts) -> Result<Receipt> {
        let snap = self.catalog_view();
        let id = snap.catalog().resolve(path)?;
        self.append_in(snap, id, data, opts)
    }

    /// Routes one append by the catalog of `snap` and hands the shard
    /// `snap` for its check.
    fn append_in(
        &self,
        snap: Arc<ReadView>,
        id: LogFileId,
        data: &[u8],
        opts: AppendOpts,
    ) -> Result<Receipt> {
        let shard = snap.catalog().route(id, self.route_mask());
        self.shards[shard]
            .append(snap, id, data, opts)
            .map(|r| Self::globalize_receipt(shard, r))
    }

    /// Forces any buffered entries to stable storage (§2.3.1), on every
    /// shard.
    pub fn flush(&self) -> Result<()> {
        for s in &self.shards {
            s.flush()?;
        }
        Ok(())
    }

    /// Seals every shard's open block outright (used by tests and volume
    /// hygiene), draining the sealed queues so the seals land on the
    /// devices.
    pub fn seal_current_block(&self) -> Result<()> {
        for s in &self.shards {
            s.seal_current_block()?;
        }
        Ok(())
    }

    /// Appends one entry per `(path, payload)` item, replying with all
    /// receipts in item order.
    ///
    /// Every path is resolved before anything is staged, so a batch naming
    /// an unknown path stages nothing — at any shard count. Within one
    /// shard the items are staged under a single state-lock hold and a
    /// forced batch pays for **one** durability point covering
    /// every item. A batch spanning shards is *per-shard atomic*: each
    /// shard's sub-batch commits as one unit, shards are processed in
    /// ascending index order (catalog shard first), and an error leaves
    /// sub-batches on lower-indexed shards durable while later shards were
    /// never touched — there is no cross-shard rollback.
    pub fn append_batch(
        &self,
        items: &[(String, Vec<u8>)],
        opts: AppendOpts,
    ) -> Result<Vec<Receipt>> {
        let snap = self.catalog_view();
        let cat = snap.catalog();
        let mask = self.route_mask();
        // Per shard: the batch positions and the resolved items.
        let mut groups: BTreeMap<usize, (Vec<usize>, Vec<_>)> = BTreeMap::new();
        for (i, (path, data)) in items.iter().enumerate() {
            let id = cat.resolve(path)?;
            let (idxs, sub) = groups.entry(cat.route(id, mask)).or_default();
            idxs.push(i);
            sub.push((id, &data[..]));
        }
        let mut out: Vec<Option<Receipt>> = vec![None; items.len()];
        // One handle on the snapshot per sub-batch, the last the original.
        let snaps = std::iter::repeat_n(snap, groups.len());
        // BTreeMap iteration gives ascending shard order — the service-wide
        // cross-shard order. Each shard's lock is released before the next
        // shard's is taken.
        for ((shard, (idxs, sub)), snap) in groups.into_iter().zip(snaps) {
            let receipts = self.shards[shard].append_batch(snap, &sub, opts)?;
            for (r, i) in receipts.into_iter().zip(idxs) {
                out[i] = Some(Self::globalize_receipt(shard, r));
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("invariant: every batch item was routed to exactly one shard"))
            .collect())
    }

    /// The space-overhead report (§3.5), summed across shards; it reads
    /// the shards' counters and takes no lock.
    #[must_use]
    pub fn report(&self) -> SpaceReport {
        SpaceReport::of(self.shards.iter().map(|s| &s.pshard.space))
    }

    // ------------------------------------------------------------------
    // Observability.
    // ------------------------------------------------------------------

    /// The service's observability state (registry, trace ring, shared
    /// device counters) — one instance shared by every shard.
    #[must_use]
    pub fn obs(&self) -> &Arc<ServiceObs> {
        &self.obs
    }

    /// The unified metrics registry (device, cache, core, space and
    /// recovery metrics all register here).
    #[must_use]
    pub fn metrics(&self) -> &Arc<clio_obs::MetricsRegistry> {
        self.obs.registry()
    }

    /// The full registry rendered in the Prometheus-style text format.
    /// Takes the registry's lock and no shard's state lock.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        clio_obs::expo::render_prometheus(self.obs.registry())
    }

    /// The full registry rendered as pretty-printed JSON.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        clio_obs::expo::render_json(self.obs.registry())
    }

    /// A text dump of the op trace ring (most recent operations last).
    #[must_use]
    pub fn trace_dump(&self) -> String {
        self.obs.trace().dump()
    }

    /// The trace ring's surviving spans as compact JSON trees (the body
    /// of the HTTP endpoint's `GET /trace`).
    #[must_use]
    pub fn trace_json(&self) -> String {
        self.obs.trace().trace_json().encode()
    }
}
