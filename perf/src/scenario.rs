//! One repetition of a workload: set-up, the timed append phase, crash and
//! timed recoveries, the timed read-back phase, and the checks on every
//! byte read back.
//!
//! All clients are closed loops: a client issues its next call only after
//! the previous one returned. Latencies are per call, taken around the call
//! with `Instant`; throughput is work done over the phase's wall time.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Instant;

use clio_cache::CacheSnapshot;
use clio_core::recovery::RecoveryReport;
use clio_core::service::Receipt;
use clio_core::{AppendOpts, Entry, LogCursor, LogService, ServiceConfig};
use clio_device::MemWormDevice;
use clio_obs::registry::{MetricValue, Sample};
use clio_types::{ClioError, Clock, LogFileId, ManualClock, Result, Timestamp, VolumeSeqId};

use crate::alloc;
use crate::device::{copy_image, timed_handles, DeviceCounters, DeviceSnapshot, TimedPool};
use crate::gen::{
    fill_payload, payload_key, Op, Sizing, Trace, Workload, AUDIT_PASSES, SPARSE_RARE_SCANS,
    SPARSE_SUBS, SPARSE_TIME_RUN, SPARSE_TOPS, TAIL_RECENT, TAIL_RECENT_PCT,
};
use crate::rng::Rng;
use crate::span;
use crate::stats::FAILED_NS;

/// Recoveries timed per repetition: at least this many …
const MIN_RECOVERIES: usize = 10;
/// … continuing until this much time has gone into them, image copies
/// included (a copy of `txn_forced`'s image costs far more than recovering
/// from it) …
const RECOVERY_BUDGET_MS: f64 = 100.0;
/// … but never more than this many.
const MAX_RECOVERIES: usize = 100;

/// Distinct error strings kept per workload.
const ERRORS_KEPT: usize = 3;

/// Span-op-id tags, so op ids are unique across phases and clients.
const OP_APPEND: u64 = 1 << 56;
const OP_READ: u64 = 2 << 56;
const OP_RECOVER: u64 = 3 << 56;
const OP_OTHER: u64 = 4 << 56;
const OP_CLIENT_SHIFT: u32 = 48;

/// What one timed phase produced.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Calls issued.
    pub attempted: u64,
    /// Calls that returned `Err`, plus entries a scan should have returned
    /// and did not.
    pub failed: u64,
    /// Units of work done: appends acknowledged, or entries returned and
    /// verified.
    pub done: u64,
    /// Payload bytes of the acknowledged appends.
    pub bytes: u64,
    /// One latency per call, ns; [`FAILED_NS`] for a call that failed. In
    /// call order per client, clients one after another.
    pub lat_ns: Vec<u32>,
    /// Allocations made by the calls (traced run only).
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// `cursor.next()` calls, and the time inside them, ns.
    pub cursor_calls: u64,
    /// Time inside `cursor.next()` calls, ns.
    pub cursor_ns: u64,
    /// Entries the cursors returned.
    pub cursor_entries: u64,
    /// Entries returned with wrong bytes, id or order.
    pub mismatches: u64,
}

impl Phase {
    fn with_capacity(calls: usize) -> Phase {
        Phase {
            lat_ns: Vec::with_capacity(calls),
            ..Phase::default()
        }
    }

    /// Folds another client's share of the same phase into this one. The
    /// wall time is the phase's, set by the caller.
    fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.done += other.done;
        self.bytes += other.bytes;
        self.lat_ns.extend(other.lat_ns);
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.cursor_calls += other.cursor_calls;
        self.cursor_ns += other.cursor_ns;
        self.cursor_entries += other.cursor_entries;
        self.mismatches += other.mismatches;
    }
}

/// The first few distinct error strings seen.
#[derive(Debug, Default, Clone)]
pub struct Errors(pub Vec<String>);

impl Errors {
    fn push(&mut self, s: String) {
        if self.0.len() < ERRORS_KEPT && !self.0.contains(&s) {
            self.0.push(s);
        }
    }

    fn note(&mut self, e: &ClioError) {
        // Formatting is skipped once the cap is reached: a workload that
        // fails on every op should not pay for a string each time.
        if self.0.len() < ERRORS_KEPT {
            self.push(e.to_string());
        }
    }

    /// Merges `other` in, keeping the cap.
    pub fn absorb(&mut self, other: Errors) {
        other.0.into_iter().for_each(|s| self.push(s));
    }
}

/// Counters read from the product's own registry (source d).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceCounts {
    /// `clio_core_view_publishes_total`.
    pub view_publishes: u64,
    /// Sum of `clio_shard_leader_elections_total` over shards.
    pub leader_elections: u64,
    /// `clio_core_locates_total`.
    pub locates: u64,
    /// Sum of the `clio_core_locate_blocks` histogram.
    pub locate_blocks: u64,
}

impl ServiceCounts {
    fn read(svc: &LogService) -> ServiceCounts {
        let samples = svc.metrics().gather();
        ServiceCounts {
            view_publishes: counter_sum(&samples, "clio_core_view_publishes_total"),
            leader_elections: counter_sum(&samples, "clio_shard_leader_elections_total"),
            locates: counter_sum(&samples, "clio_core_locates_total"),
            locate_blocks: hist_sum(&samples, "clio_core_locate_blocks"),
        }
    }
}

fn counter_sum(samples: &[Sample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            MetricValue::Counter(v) => *v,
            _ => 0,
        })
        .sum()
}

fn hist_sum(samples: &[Sample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            MetricValue::Histogram(h) => h.sum,
            _ => 0,
        })
        .sum()
}

/// Everything one repetition measured.
pub struct Rep {
    /// Trace generation + `LogService::create` + every `create_log`, s.
    pub setup_s: f64,
    /// Mean `create_log` latency, µs.
    pub create_log_us: f64,
    /// The append phase (all appending clients).
    pub append: Phase,
    /// The final `flush()` of `audit_buffered`, µs (0 elsewhere).
    pub flush_us: f64,
    /// The phase `read_*` metrics come from: the read-back after recovery,
    /// or for `tail_mixed` the reader that ran beside the writer.
    pub read: Phase,
    /// `tail_mixed` only: the forward passes after recovery.
    pub post_scan: Option<Phase>,
    /// One wall time per `LogService::recover` call, ms.
    pub recover_ms: Vec<f64>,
    /// The report of each of those calls.
    pub reports: Vec<RecoveryReport>,
    /// `recover` calls that returned `Err`.
    pub recover_failed: u64,
    /// Device counters at: service created and logs made; append phase
    /// over; first recovery and read-back over.
    pub device: [DeviceSnapshot; 3],
    /// Forced-acknowledged receipts missing or byte-different after
    /// recovery.
    pub lost_acked: u64,
    /// Acknowledged buffered appends that were not durable at the crash.
    pub buffered_lost: u64,
    /// First distinct error strings.
    pub errors: Errors,
    /// Cache counters of the service the `read` phase ran on.
    pub cache: CacheSnapshot,
    /// Product counters over the append phase and over the read-back.
    pub counts: [ServiceCounts; 2],
    /// The space report of the pre-crash service.
    pub space: clio_core::SpaceReport,
    /// `metrics_text()` latency on the pre-crash service, µs.
    pub scrape_us: f64,
    /// The crash image: the raw media as the crash left them (every
    /// recovery ran on a copy). Kept for the replay probes.
    pub image: Vec<Arc<MemWormDevice>>,
    /// The inputs this repetition ran.
    pub trace: Arc<Trace>,
    /// The log file id of each of `trace.logs`.
    pub ids: Vec<LogFileId>,
}

/// How a repetition is run.
#[derive(Debug, Clone, Copy)]
pub struct RepOptions {
    /// Record spans and count allocations.
    pub traced: bool,
    /// `ServiceConfig::trace_events` (512 is the default under test; 0 is
    /// used once by the traced run to price the product's own trace ring).
    pub trace_events: usize,
    /// Stop after the append phase (used with `trace_events: 0`).
    pub append_only: bool,
}

/// The configuration every run uses, with the environment-dependent
/// default pinned.
pub fn service_config(trace_events: usize) -> ServiceConfig {
    ServiceConfig {
        group_commit: true,
        trace_events,
        ..ServiceConfig::default()
    }
}

fn ns(since: Instant) -> u32 {
    u32::try_from(since.elapsed().as_nanos())
        .unwrap_or(FAILED_NS - 1)
        .min(FAILED_NS - 1)
}

/// Makes one service call as the harness measures every call: allocation
/// counts and the clock read around it, an op span opened inside those.
/// Returns the result and the latency in ns.
fn timed<R>(
    phase: &mut Phase,
    name: &'static str,
    op_id: u64,
    call: impl FnOnce() -> R,
) -> (R, u32) {
    let (a0, b0) = alloc::counts();
    let t = Instant::now();
    let guard = span::enter(name, op_id);
    let r = call();
    drop(guard);
    let lat = ns(t);
    let (a1, b1) = alloc::counts();
    phase.allocs += a1 - a0;
    phase.alloc_bytes += b1 - b0;
    phase.attempted += 1;
    (r, lat)
}

fn opts_of(op: Op) -> AppendOpts {
    if op.forced {
        AppendOpts::forced()
    } else {
        AppendOpts::standard()
    }
}

/// One appending client: issues `ops` in order, hands each receipt to
/// `publish`, and returns its share of the phase with its receipts.
fn append_client(
    svc: &LogService,
    trace: &Trace,
    ids: &[LogFileId],
    client: usize,
    traced: bool,
    mut publish: impl FnMut(usize, Option<Receipt>),
) -> (Phase, Vec<Option<Receipt>>, Errors) {
    let ops = &trace.clients[client];
    let mut phase = Phase::with_capacity(ops.len());
    let mut receipts = Vec::with_capacity(ops.len());
    let mut errors = Errors::default();
    let mut buf = Vec::with_capacity(512);
    let tag = OP_APPEND | ((client as u64) << OP_CLIENT_SHIFT);
    alloc::set_counting(traced);
    for (i, op) in ops.iter().enumerate() {
        fill_payload(trace.seed, client, i, usize::from(op.size), &mut buf);
        let id = ids[usize::from(op.log)];
        let opts = opts_of(*op);
        let (r, mut lat) = timed(&mut phase, "core.append", tag | i as u64, || {
            svc.append(id, &buf, opts)
        });
        let receipt = match r {
            Ok(receipt) => {
                phase.done += 1;
                phase.bytes += u64::from(op.size);
                Some(receipt)
            }
            Err(e) => {
                phase.failed += 1;
                lat = FAILED_NS;
                alloc::uncounted(|| errors.note(&e));
                None
            }
        };
        phase.lat_ns.push(lat);
        publish(i, receipt);
        receipts.push(receipt);
    }
    alloc::set_counting(false);
    span::flush_thread();
    (phase, receipts, errors)
}

/// Checks entries read back against the generated inputs.
struct Verifier<'a> {
    trace: &'a Trace,
    ids: &'a [LogFileId],
    scratch: Vec<u8>,
}

impl<'a> Verifier<'a> {
    fn new(trace: &'a Trace, ids: &'a [LogFileId]) -> Verifier<'a> {
        Verifier {
            trace,
            ids,
            scratch: Vec::with_capacity(512),
        }
    }

    /// The `(client, index, op)` the entry is, if its id and every byte are
    /// what that op wrote.
    fn identify(&mut self, e: &Entry) -> Option<(usize, usize, Op)> {
        let (client, index) = payload_key(&e.data)?;
        let op = self.trace.op(client, index)?;
        if e.data.len() != usize::from(op.size) || e.id != self.ids[usize::from(op.log)] {
            return None;
        }
        fill_payload(
            self.trace.seed,
            client,
            index,
            usize::from(op.size),
            &mut self.scratch,
        );
        (self.scratch == e.data).then_some((client, index, op))
    }
}

/// A reading client's bookkeeping: one phase share, its verifier and
/// errors.
struct Reader<'a> {
    phase: Phase,
    verifier: Verifier<'a>,
    errors: Errors,
    tag: u64,
    serial: u64,
}

impl<'a> Reader<'a> {
    fn new(trace: &'a Trace, ids: &'a [LogFileId], client: usize, calls: usize) -> Reader<'a> {
        Reader {
            phase: Phase::with_capacity(calls),
            verifier: Verifier::new(trace, ids),
            errors: Errors::default(),
            tag: OP_READ | ((client as u64) << OP_CLIENT_SHIFT),
            serial: 0,
        }
    }

    fn next_op(&mut self) -> u64 {
        self.serial += 1;
        self.tag | self.serial
    }

    /// One timed `read_entry`, checked to be exactly `(client, index)`.
    fn read_entry(&mut self, svc: &LogService, receipt: &Receipt, client: usize, index: usize) {
        let op_id = self.next_op();
        let (r, lat) = timed(&mut self.phase, "core.read", op_id, || {
            svc.read_entry(receipt.addr)
        });
        alloc::uncounted(|| match r {
            Ok(e) => {
                self.phase.lat_ns.push(lat);
                match self.verifier.identify(&e) {
                    Some((c, i, _)) if (c, i) == (client, index) => self.phase.done += 1,
                    _ => self.phase.mismatches += 1,
                }
            }
            Err(e) => {
                self.phase.lat_ns.push(FAILED_NS);
                self.phase.failed += 1;
                self.errors.note(&e);
            }
        });
    }

    /// Opens a cursor with `open` and walks it forward for at most `limit`
    /// entries, timing the opening and every `next()`. Entries must verify,
    /// belong to `logs`, and come in ascending op order; `must` lists the
    /// op indexes that have to appear (ascending), and each one missing
    /// counts as failed. `floor` is the earliest timestamp an entry may
    /// carry.
    fn scan<'s>(
        &mut self,
        open: impl FnOnce() -> Result<LogCursor<'s>>,
        logs: &[u16],
        must: &[u32],
        limit: usize,
        floor: Option<Timestamp>,
    ) {
        let op_id = self.next_op();
        let (cursor, lat) = timed(&mut self.phase, "core.read", op_id, open);
        let mut cursor = match cursor {
            Ok(c) => {
                alloc::uncounted(|| self.phase.lat_ns.push(lat));
                c
            }
            Err(e) => {
                alloc::uncounted(|| {
                    self.phase.lat_ns.push(FAILED_NS);
                    self.errors.note(&e);
                });
                self.phase.failed += 1 + must.len() as u64;
                return;
            }
        };
        let mut must = must.iter().copied().peekable();
        let mut last: Option<usize> = None;
        let mut returned = 0usize;
        while returned < limit {
            let op_id = self.next_op();
            let (r, lat) = timed(&mut self.phase, "core.read", op_id, || cursor.next());
            self.phase.cursor_calls += 1;
            self.phase.cursor_ns += u64::from(lat);
            let entry = match r {
                Ok(Some(e)) => e,
                Ok(None) => {
                    alloc::uncounted(|| self.phase.lat_ns.push(lat));
                    break;
                }
                Err(e) => {
                    alloc::uncounted(|| {
                        self.phase.lat_ns.push(FAILED_NS);
                        self.errors.note(&e);
                    });
                    self.phase.failed += 1;
                    break;
                }
            };
            returned += 1;
            self.phase.cursor_entries += 1;
            alloc::uncounted(|| {
                self.phase.lat_ns.push(lat);
                let ok = match self.verifier.identify(&entry) {
                    Some((_, index, op)) => {
                        let in_order = last.is_none_or(|l| index > l);
                        last = Some(index);
                        while must.next_if(|&m| (m as usize) < index).is_some() {
                            self.phase.failed += 1;
                        }
                        must.next_if_eq(&(index as u32));
                        in_order
                            && logs.contains(&op.log)
                            && floor.is_none_or(|f| entry.effective_ts() >= f)
                    }
                    None => false,
                };
                if ok {
                    self.phase.done += 1;
                } else {
                    self.phase.mismatches += 1;
                }
            });
        }
        if returned < limit {
            // The cursor ran dry: whatever had to appear and did not is
            // missing.
            self.phase.failed += must.count() as u64;
        }
    }
}

/// Which ops must survive the crash: an append is durable once a later (or
/// the same) acknowledged forced append, or a flush, reached its shard.
fn durable_ops(
    ops: &[Op],
    receipts: &[Option<Receipt>],
    shard_of_log: &[u32],
    flushed: bool,
) -> Vec<bool> {
    let shards = shard_of_log.iter().max().map_or(1, |m| *m as usize + 1);
    let mut last_forced: Vec<Option<usize>> = vec![None; shards];
    for (i, op) in ops.iter().enumerate() {
        if op.forced && receipts[i].is_some() {
            last_forced[shard_of_log[usize::from(op.log)] as usize] = Some(i);
        }
    }
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let s = shard_of_log[usize::from(op.log)] as usize;
            receipts[i].is_some() && (flushed || last_forced[s].is_some_and(|f| i <= f))
        })
        .collect()
}

/// Op indexes of `ops` (single client) that are durable and target one of
/// `logs`, ascending.
fn must_appear(ops: &[Op], durable: &[bool], logs: &[u16]) -> Vec<u32> {
    ops.iter()
        .enumerate()
        .filter(|(i, op)| durable[*i] && logs.contains(&op.log))
        .map(|(i, _)| i as u32)
        .collect()
}

/// Receipts handed from `tail_mixed`'s writer to its reader: written once
/// each, then published by bumping `count` (Release) and read after
/// loading it (Acquire).
struct Published {
    slots: Vec<OnceLock<Receipt>>,
    count: AtomicUsize,
    done: AtomicBool,
}

/// Runs one repetition of `workload`.
pub fn run_rep(workload: Workload, seed: u64, sizing: Sizing, opt: RepOptions) -> Result<Rep> {
    // Spans are recorded around the service's work only, never around the
    // harness's own; an untraced repetition leaves the switch alone.
    let tracing = |on: bool| {
        if opt.traced {
            span::set_enabled(on);
        }
    };
    // ---- set-up -------------------------------------------------------
    let t_setup = Instant::now();
    let trace = Arc::new(Trace::generate(workload, seed, sizing));
    let cfg = service_config(opt.trace_events);
    let counters = Arc::new(DeviceCounters::default());
    let pool = Arc::new(TimedPool::new(
        cfg.block_size,
        sizing.volume_blocks,
        counters.clone(),
    ));
    let clock = Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)));
    tracing(true);
    let svc = LogService::create(VolumeSeqId(1), pool.clone(), cfg.clone(), clock.clone())?;
    let mut ids = Vec::with_capacity(trace.logs.len());
    let t_create = Instant::now();
    for path in &trace.logs {
        let _span = span::enter("core.create_log", OP_OTHER | ids.len() as u64);
        ids.push(svc.create_log(path)?);
    }
    let create_log_us = t_create.elapsed().as_secs_f64() * 1e6 / trace.logs.len() as f64;
    let setup_s = t_setup.elapsed().as_secs_f64();
    let shard_of_log: Vec<u32> = ids.iter().map(|id| svc.shard_of(*id)).collect();
    let dev_setup = counters.snapshot();

    // ---- append phase -------------------------------------------------
    let mut errors = Errors::default();
    let mut read = Phase::default();
    let mut flush_us = 0.0;
    let mut all_receipts: Vec<Vec<Option<Receipt>>> = Vec::new();
    let t_append = Instant::now();
    let mut append = match workload {
        Workload::AuditBuffered | Workload::MultilogSparse => {
            let (phase, receipts, errs) =
                append_client(&svc, &trace, &ids, 0, opt.traced, |_, _| {});
            errors.absorb(errs);
            all_receipts.push(receipts);
            phase
        }
        Workload::TxnForced => {
            let start = Barrier::new(trace.clients.len());
            let shares = std::thread::scope(|s| {
                let handles: Vec<_> = (0..trace.clients.len())
                    .map(|c| {
                        let (svc, trace, ids, start) = (&svc, &trace, &ids, &start);
                        s.spawn(move || {
                            start.wait();
                            append_client(svc, trace, ids, c, opt.traced, |_, _| {})
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("append client panicked"))
                    .collect::<Vec<_>>()
            });
            let mut phase = Phase::default();
            for (share, receipts, errs) in shares {
                phase.absorb(share);
                errors.absorb(errs);
                all_receipts.push(receipts);
            }
            phase
        }
        Workload::TailMixed => {
            let n = trace.clients[0].len();
            let published = Published {
                slots: (0..n).map(|_| OnceLock::new()).collect(),
                count: AtomicUsize::new(0),
                done: AtomicBool::new(false),
            };
            let (writer, reader) = std::thread::scope(|s| {
                let (svc, trace, ids, published) = (&svc, &trace, &ids, &published);
                let reader = s.spawn(move || tail_reader(svc, trace, ids, published, opt.traced));
                let writer = append_client(svc, trace, ids, 0, opt.traced, |i, receipt| {
                    if let Some(r) = receipt {
                        // Cannot already be set: each slot is written once.
                        let _ = published.slots[i].set(r);
                    }
                    published.count.store(i + 1, Ordering::Release);
                });
                published.done.store(true, Ordering::Release);
                (writer, reader.join().expect("tail reader panicked"))
            });
            let (phase, receipts, errs) = writer;
            errors.absorb(errs);
            all_receipts.push(receipts);
            let (reader_phase, reader_errs) = reader;
            errors.absorb(reader_errs);
            read = reader_phase;
            phase
        }
    };
    let flushed = workload == Workload::AuditBuffered;
    if flushed {
        // The paper's default operation ends with one flush, inside the
        // timed region: buffered appends are only "done" once durable.
        let (r, lat) = timed(&mut append, "core.flush", OP_OTHER | (1 << 32), || {
            svc.flush()
        });
        if let Err(e) = r {
            append.failed += 1;
            errors.note(&e);
        }
        flush_us = f64::from(lat) / 1e3;
    }
    append.wall_s = t_append.elapsed().as_secs_f64();
    if workload == Workload::TailMixed {
        read.wall_s = append.wall_s;
    }
    tracing(false);
    let dev_append = counters.snapshot();
    let counts_append = ServiceCounts::read(&svc);
    let space = svc.report();
    let t = Instant::now();
    let scraped = svc.metrics_text();
    let scrape_us = t.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(scraped);
    let cache = svc.cache().stats();

    // ---- crash ----------------------------------------------------------
    let durable: Vec<Vec<bool>> = trace
        .clients
        .iter()
        .zip(&all_receipts)
        .map(|(ops, receipts)| durable_ops(ops, receipts, &shard_of_log, flushed))
        .collect();
    let buffered_lost = trace
        .clients
        .iter()
        .zip(&all_receipts)
        .zip(&durable)
        .flat_map(|((ops, receipts), durable)| {
            ops.iter()
                .zip(receipts)
                .zip(durable)
                .filter(|((op, r), d)| !op.forced && r.is_some() && !**d)
        })
        .count() as u64;
    let resume_at = Timestamp(clock.now().0 + 1);
    drop(svc);
    // What survives the crash: the raw media. Nothing writes to them again;
    // every recovery below gets a copy.
    let image = pool.media();
    let mut rep = Rep {
        setup_s,
        create_log_us,
        append,
        flush_us,
        read,
        post_scan: None,
        recover_ms: Vec::new(),
        reports: Vec::new(),
        recover_failed: 0,
        device: [dev_setup, dev_append, dev_append],
        lost_acked: 0,
        buffered_lost,
        errors,
        cache,
        counts: [counts_append, ServiceCounts::default()],
        space,
        scrape_us,
        image,
        trace: trace.clone(),
        ids: ids.clone(),
    };
    if opt.append_only {
        return Ok(rep);
    }

    // ---- recover --------------------------------------------------------
    // Every call starts from its own byte-identical copy of the crash
    // image (copying is untimed); the first reports into the repetition's
    // device counters, the rest into a throwaway set.
    let mut recovered: Option<LogService> = None;
    let t_recoveries = Instant::now();
    for call in 0..MAX_RECOVERIES {
        if call >= MIN_RECOVERIES
            && t_recoveries.elapsed().as_secs_f64() * 1e3 >= RECOVERY_BUDGET_MS
        {
            break;
        }
        let first = call == 0;
        let c = if first {
            counters.clone()
        } else {
            Arc::new(DeviceCounters::default())
        };
        let copy = copy_image(&rep.image)?;
        let handles = timed_handles(&copy, &c);
        let spare = Arc::new(TimedPool::new(cfg.block_size, sizing.volume_blocks, c));
        let clock = Arc::new(ManualClock::starting_at(resume_at));
        tracing(first);
        let t = Instant::now();
        let guard = span::enter("core.recover", OP_RECOVER | call as u64);
        let r = LogService::recover(handles, spare, cfg.clone(), clock);
        drop(guard);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracing(false);
        match r {
            Ok((svc, report)) => {
                rep.recover_ms.push(ms);
                rep.reports.push(report);
                if first {
                    recovered = Some(svc);
                }
            }
            Err(e) => {
                rep.recover_failed += 1;
                rep.errors.note(&e);
            }
        }
    }
    let Some(svc) = recovered else {
        return Err(ClioError::Internal(format!(
            "{}: the first recovery failed, nothing to read back: {:?}",
            workload.name(),
            rep.errors.0
        )));
    };

    // ---- read-back ------------------------------------------------------
    tracing(true);
    let t_read = Instant::now();
    let (mut back, back_errors) =
        read_back(&svc, &trace, &ids, &all_receipts, &durable, opt.traced);
    back.wall_s = t_read.elapsed().as_secs_f64();
    tracing(false);
    rep.errors.absorb(back_errors);
    rep.device[2] = counters.snapshot();
    rep.counts[1] = ServiceCounts::read(&svc);

    if workload != Workload::TailMixed {
        rep.cache = svc.cache().stats();
    }

    // ---- every forced-acknowledged append must have survived -------------
    // Untimed: each such receipt is read and checked, whether or not the
    // read-back happened to draw it.
    let mut checker = Reader::new(&trace, &ids, 0, 0);
    for (client, ops) in trace.clients.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            if let (true, Some(receipt)) = (op.forced, all_receipts[client][i]) {
                checker.read_entry(&svc, &receipt, client, i);
            }
        }
    }
    rep.lost_acked = checker.phase.failed + checker.phase.mismatches;
    rep.errors.absorb(checker.errors);

    if workload == Workload::TailMixed {
        rep.post_scan = Some(back);
    } else {
        rep.read = back;
    }
    Ok(rep)
}

/// The reader that runs beside `tail_mixed`'s writer: `read_entry` over
/// receipts the writer has published, mostly recent ones, until the writer
/// is done.
fn tail_reader(
    svc: &LogService,
    trace: &Trace,
    ids: &[LogFileId],
    published: &Published,
    traced: bool,
) -> (Phase, Errors) {
    let mut reader = Reader::new(trace, ids, 1, trace.clients[0].len());
    let mut rng = Rng::derive(trace.seed, 0x401);
    alloc::set_counting(traced);
    while !published.done.load(Ordering::Acquire) {
        let n = published.count.load(Ordering::Acquire);
        if n == 0 {
            std::hint::spin_loop();
            continue;
        }
        let index = if rng.below(100) < TAIL_RECENT_PCT {
            n - 1 - rng.below(n.min(TAIL_RECENT) as u64) as usize
        } else {
            rng.below(n as u64) as usize
        };
        // A failed append leaves its slot empty; there is nothing to read.
        if let Some(receipt) = published.slots[index].get() {
            reader.read_entry(svc, receipt, 0, index);
        }
    }
    alloc::set_counting(false);
    span::flush_thread();
    (reader.phase, reader.errors)
}

/// The read-back phase of `trace.workload` on the recovered service.
fn read_back(
    svc: &LogService,
    trace: &Trace,
    ids: &[LogFileId],
    receipts: &[Vec<Option<Receipt>>],
    durable: &[Vec<bool>],
    traced: bool,
) -> (Phase, Errors) {
    alloc::set_counting(traced);
    let (phase, errors) = match trace.workload {
        Workload::AuditBuffered => {
            let ops = &trace.clients[0];
            let must = must_appear(ops, &durable[0], &[0]);
            let mut r = Reader::new(trace, ids, 0, AUDIT_PASSES * (ops.len() + 1));
            for _ in 0..AUDIT_PASSES {
                r.scan(|| svc.cursor("/audit"), &[0], &must, usize::MAX, None);
            }
            (r.phase, r.errors)
        }
        Workload::TxnForced => {
            let clients = trace.clients.len();
            let shares = std::thread::scope(|s| {
                let handles: Vec<_> = trace
                    .read_plan
                    .iter()
                    .enumerate()
                    .map(|(t, plan)| {
                        s.spawn(move || {
                            let mut r = Reader::new(trace, ids, t, plan.len());
                            alloc::set_counting(traced);
                            for &pick in plan {
                                let (client, index) =
                                    (pick as usize % clients, pick as usize / clients);
                                // Every append here is forced, so every
                                // acknowledged receipt is durable.
                                if let Some(receipt) = receipts[client][index] {
                                    r.read_entry(svc, &receipt, client, index);
                                }
                            }
                            alloc::set_counting(false);
                            span::flush_thread();
                            (r.phase, r.errors)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("read client panicked"))
                    .collect::<Vec<_>>()
            });
            let mut phase = Phase::default();
            let mut errors = Errors::default();
            for (share, errs) in shares {
                phase.absorb(share);
                errors.absorb(errs);
            }
            (phase, errors)
        }
        Workload::MultilogSparse => {
            let ops = &trace.clients[0];
            let durable = &durable[0];
            let subs = SPARSE_TOPS * SPARSE_SUBS;
            let mut r = Reader::new(trace, ids, 0, ops.len());
            // 1. The rarest sublogs, one sparse forward pass each.
            for sub in subs - SPARSE_RARE_SCANS..subs {
                let log = (SPARSE_TOPS + sub) as u16;
                let must = must_appear(ops, durable, &[log]);
                r.scan(
                    || svc.cursor(&trace.logs[usize::from(log)]),
                    &[log],
                    &must,
                    usize::MAX,
                    None,
                );
            }
            // 2. One closure pass: `/p0` and its eight sublogs.
            let closure = closure_of(0);
            let must = must_appear(ops, durable, &closure);
            r.scan(|| svc.cursor("/p0"), &closure, &must, usize::MAX, None);
            // 3. Time lookups, each followed by a short run. Drawn from the
            // durable ops, so the looked-up time exists after the crash.
            let durable_ops: Vec<u32> = (0..ops.len() as u32)
                .filter(|i| durable[*i as usize])
                .collect();
            if !durable_ops.is_empty() {
                for pick in &trace.time_plan {
                    let j = durable_ops[*pick as usize % durable_ops.len()] as usize;
                    let Some(receipt) = receipts[0][j] else {
                        continue;
                    };
                    let top = (usize::from(ops[j].log) - SPARSE_TOPS) % SPARSE_TOPS;
                    r.scan(
                        || svc.cursor_from_time(&trace.logs[top], receipt.timestamp),
                        &closure_of(top),
                        &[],
                        SPARSE_TIME_RUN,
                        Some(receipt.timestamp),
                    );
                }
                // 4. Uniform reads by address over the durable receipts.
                for pick in &trace.read_plan[0] {
                    let j = durable_ops[*pick as usize % durable_ops.len()] as usize;
                    if let Some(receipt) = receipts[0][j] {
                        r.read_entry(svc, &receipt, 0, j);
                    }
                }
            }
            (r.phase, r.errors)
        }
        Workload::TailMixed => {
            let ops = &trace.clients[0];
            let mut r = Reader::new(trace, ids, 0, ops.len() + 4);
            for feed in 0..4u16 {
                let must = must_appear(ops, &durable[0], &[feed]);
                r.scan(
                    || svc.cursor(&trace.logs[usize::from(feed)]),
                    &[feed],
                    &must,
                    usize::MAX,
                    None,
                );
            }
            (r.phase, r.errors)
        }
    };
    alloc::set_counting(false);
    span::flush_thread();
    (phase, errors)
}

/// `multilog_sparse`: the log indexes of top-level `top` and its sublogs.
fn closure_of(top: usize) -> Vec<u16> {
    std::iter::once(top as u16)
        .chain((0..SPARSE_SUBS).map(|k| (SPARSE_TOPS + k * SPARSE_TOPS + top) as u16))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Sizing = Sizing {
        appends_per_client: 3_000,
        random_reads: 1_000,
        volume_blocks: 512,
    };

    const UNTRACED: RepOptions = RepOptions {
        traced: false,
        trace_events: 512,
        append_only: false,
    };

    #[test]
    fn every_workload_reads_back_what_it_wrote() {
        let _serial = span::test_lock();
        for w in Workload::ALL {
            let rep = run_rep(w, 5, TINY, UNTRACED).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(rep.append.failed, 0, "{}: {:?}", w.name(), rep.errors);
            assert_eq!(rep.read.failed, 0, "{}: {:?}", w.name(), rep.errors);
            assert_eq!(rep.read.mismatches, 0, "{}", w.name());
            assert_eq!(rep.lost_acked, 0, "{}", w.name());
            assert!(rep.read.done > 0, "{}", w.name());
            assert!(rep.recover_ms.len() >= MIN_RECOVERIES);
            assert_eq!(rep.recover_failed, 0);
            if let Some(post) = &rep.post_scan {
                assert_eq!((post.failed, post.mismatches), (0, 0));
                assert!(post.done > 0);
            }
        }
    }

    #[test]
    fn recovering_twice_from_the_crash_image_reports_the_same_counts() {
        let _serial = span::test_lock();
        let w = Workload::MultilogSparse;
        let rep = run_rep(w, 9, TINY, UNTRACED).expect("rep");
        let counts = |r: &RecoveryReport| {
            (
                r.volumes,
                r.end_probes,
                r.rebuild_blocks_read,
                r.invalidated.clone(),
                r.catalog_records,
            )
        };
        assert!(rep.reports.len() >= 2);
        assert!(rep.reports[0].volumes > 4, "hot shards rolled over");
        for r in &rep.reports[1..] {
            assert_eq!(counts(r), counts(&rep.reports[0]));
        }
    }

    #[test]
    fn durability_follows_the_last_forced_append_per_shard() {
        let op = |log, forced| Op {
            log,
            size: 16,
            forced,
        };
        let r = Some(Receipt {
            addr: clio_types::EntryAddr::new(0, clio_types::BlockNo(0), 0),
            timestamp: Timestamp(1),
        });
        // Logs 0 and 1 live on shards 0 and 1.
        let ops = [
            op(0, false),
            op(1, false),
            op(0, true),
            op(1, false),
            op(0, false),
        ];
        let receipts = [r, r, r, r, r];
        assert_eq!(
            durable_ops(&ops, &receipts, &[0, 1], false),
            [true, false, true, false, false]
        );
        assert_eq!(durable_ops(&ops, &receipts, &[0, 1], true), [true; 5]);
        // A failed append is never durable, nor does it force anything.
        let receipts = [r, r, None, r, r];
        assert_eq!(durable_ops(&ops, &receipts, &[0, 1], false), [false; 5]);
        assert_eq!(
            must_appear(&ops, &[true, true, true, false, true], &[0]),
            [0, 2, 4]
        );
    }

    #[test]
    fn the_closure_of_a_top_level_log_is_itself_and_its_eight_sublogs() {
        assert_eq!(closure_of(0)[..3], [0, 64, 128]);
        assert_eq!(closure_of(5).len(), 1 + SPARSE_SUBS);
        assert!(closure_of(63).contains(&((SPARSE_TOPS + 7 * SPARSE_TOPS + 63) as u16)));
    }
}
