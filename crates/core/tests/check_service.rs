//! Model check of the real `LogService`: its group commit, sealed-queue
//! drain, read snapshots and single-flight cache fill, run as shipped under
//! `clio_testkit::check::Checker`. Each schedule builds a one-shard service
//! (256-B blocks, a 4-block exact-LRU cache) over a watched memory device
//! and runs one of three scenarios with 2–3 checker threads, below.
//!
//! Invariants: **released ⇒ durable** — the watched device writes one
//! [`RaceCell`] per block it appends, so only the commit gate's
//! Release→Acquire edge orders an appender's later read of it, and the
//! appender finds its payload with `read_data_block_direct`;
//! **read-your-writes** at every read; **a cursor sees a prefix, in
//! order**, and receipts and final scans agree with the appends, through
//! `clio_testkit::sim`'s history rules; **no lost wake-up** (a thread left
//! parked is a checker deadlock); **one device load for two misses on a
//! block**; and in scenario 1 every acknowledged entry survives
//! `LogService::recover`. A failure prints `CLIO_CHECK_REPLAY=<seed>:<index>`, which
//! re-runs that schedule.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService, Receipt};
use clio_core::ServiceConfig;
use clio_device::{LogDevice, SharedDevice};
use clio_obs::{MetricValue, Sample};
use clio_testkit::check::{schedule_target, spawn, Checker, RaceCell, Report};
use clio_testkit::sim::{self, Addr, EventKind, History, LogScan, Op, Outcome};
use clio_testkit::sync::Mutex;
use clio_types::{BlockNo, ManualClock, Result, Timestamp, VolumeSeqId};
use clio_volume::{MemDevicePool, RecordingPool};

/// Device blocks per volume, far more than any scenario writes.
const BLOCKS: u64 = 64;

/// What the watched device saw, per device block: whether it was written,
/// and how many device loads it took. Loads are counted only where asked:
/// elsewhere an appender's direct read may meet a cache fill.
struct Medium {
    written: Vec<RaceCell<bool>>,
    loads: Vec<RaceCell<u32>>,
    count_loads: bool,
}

/// The device block holding a receipt's data block (block 0 is the label).
fn device_block(r: &Receipt) -> usize {
    r.addr.block.0 as usize + 1
}

/// A memory WORM device that reports to a [`Medium`].
struct Watched {
    inner: SharedDevice,
    medium: Arc<Medium>,
}

impl LogDevice for Watched {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }
    fn query_end(&self) -> Option<BlockNo> {
        self.inner.query_end()
    }
    fn is_written(&self, block: BlockNo) -> Result<bool> {
        self.inner.is_written(block)
    }
    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        self.append_blocks(expected, &[data])
    }
    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        self.inner.append_blocks(expected, blocks)?;
        for b in expected.0..expected.0 + blocks.len() as u64 {
            self.medium.written[b as usize].write(true);
        }
        Ok(())
    }
    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        if !self.medium.count_loads {
            return self.inner.read_block(block, buf);
        }
        // Counted on both sides of the read: a second load of the block
        // that is not ordered after the first races on its counter.
        let loads = &self.medium.loads[block.0 as usize];
        loads.update(|n| *n += 1);
        let r = self.inner.read_block(block, buf);
        loads.update(|_| ());
        r
    }
    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        self.inner.invalidate_block(block)
    }
}

/// A one-shard service over a watched device, and what the device saw.
#[derive(Clone)]
struct Checked {
    svc: Arc<LogService>,
    medium: Arc<Medium>,
    pool: Arc<RecordingPool>,
}

impl std::ops::Deref for Checked {
    type Target = LogService;
    fn deref(&self) -> &LogService {
        &self.svc
    }
}

impl Checked {
    /// A fresh service with `logs` (`(path, forced)`) created.
    fn new(count_loads: bool, logs: &[(&str, bool)]) -> Checked {
        let medium = Arc::new(Medium {
            written: (0..BLOCKS).map(|_| RaceCell::new(false)).collect(),
            loads: (0..BLOCKS).map(|_| RaceCell::new(0)).collect(),
            count_loads,
        });
        let m = medium.clone();
        let mem = Arc::new(MemDevicePool::new(256, BLOCKS));
        let pool = RecordingPool::wrapping(mem, move |inner| {
            let medium = m.clone();
            Arc::new(Watched { inner, medium })
        });
        let pool = Arc::new(pool);
        let svc = LogService::create(VolumeSeqId(31), pool.clone(), config(), clock()).unwrap();
        for (path, _) in logs {
            svc.create_log(path).unwrap();
        }
        let svc = Arc::new(svc);
        Checked { svc, medium, pool }
    }

    /// Closes the service (every other handle must be gone) and recovers
    /// one from the media it wrote.
    fn recover(self) -> LogService {
        let Checked { svc, pool, .. } = self;
        drop(Arc::into_inner(svc).expect("the last handle"));
        LogService::recover(pool.devices(), pool, config(), clock())
            .unwrap()
            .0
    }

    /// Appends `value` (`len` bytes) to log `log` of `logs`; a forced
    /// append must come back durable. Returns it as a [`Done`] item.
    fn append(&self, logs: &[(&str, bool)], log: u32, value: u64, len: usize) -> Done {
        let (path, forced) = logs[log as usize];
        let mut data = format!("v{value:04};").into_bytes();
        data.resize(len, b'.');
        let opts = if forced {
            AppendOpts::forced()
        } else {
            AppendOpts::minimal()
        };
        let r = self.append_path(path, &data, opts).unwrap();
        if forced {
            let block = r.addr.block.0;
            assert!(
                self.medium.written[device_block(&r)].read(),
                "released before durable: v{value}'s block {block} is not written"
            );
            let vol = self.volumes().volume(r.addr.volume_index).unwrap();
            let image = vol.read_data_block_direct(block).unwrap();
            assert!(
                image.windows(len).any(|w| w == data),
                "released before durable: v{value} is not in block {block} on the medium"
            );
        }
        (log, value, r)
    }

    /// The value of the entry at `r`.
    fn read(&self, r: Receipt) -> u64 {
        value_of(&self.read_entry(r.addr).unwrap().data)
    }
}

fn config() -> ServiceConfig {
    ServiceConfig {
        cache_blocks: 4,
        cache_shards: 1,
        ..ServiceConfig::small()
    }
}

fn clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)))
}

fn value_of(data: &[u8]) -> u64 {
    std::str::from_utf8(&data[1..5]).unwrap().parse().unwrap()
}

fn addr(r: &Receipt) -> Addr {
    let (vol, block, slot) = (r.addr.volume_index, r.addr.block.0, r.addr.slot);
    Addr { vol, block, slot }
}

/// An acknowledged append: `(log, value, receipt)`.
type Done = (u32, u64, Receipt);

/// Checks a schedule's operations against `clio_testkit::sim`'s log model,
/// recorded after the joins in an order the model accepts: the appends in
/// address order (the order they staged in: there is one shard), then the
/// values a cursor opened at the start of log 0 returned, then — after a
/// flush — a full scan of each of `logs`.
fn check_history(svc: &LogService, logs: &[(&str, bool)], mut done: Vec<Done>, seen: &[u64]) {
    let mut h = History::default();
    let call = |op, outcome| EventKind::Call {
        op,
        result: Ok(outcome),
    };
    done.sort_by_key(|d| addr(&d.2));
    for (log, value, r) in done {
        let (forced, seqno, ts) = (logs[log as usize].1, None, r.timestamp.0);
        let op = Op::Append {
            log,
            value,
            forced,
            seqno,
        };
        h.push(0, 0, call(op, Outcome::Receipt { addr: addr(&r), ts }));
    }
    let (cursor, log) = (0, 0);
    h.push(0, 0, EventKind::CursorOpen { cursor, log });
    for &v in seen {
        let next = Outcome::Next(Some(v));
        h.push(0, 0, call(Op::CursorNext { cursor }, next));
    }
    svc.flush().unwrap();
    let scan = |(log, &(path, _)): (usize, &(&str, bool))| {
        let entries = svc.cursor(path).unwrap().collect_remaining().unwrap();
        let values = entries.iter().map(|e| value_of(&e.data)).collect();
        let log = log as u32;
        LogScan { log, values }
    };
    let scans = logs.iter().enumerate().map(scan).collect();
    h.push(0, sim::SYSTEM, EventKind::FinalScan { scans });
    if let Err(v) = sim::check_history(&h) {
        panic!("{v}\n{}", h.render());
    }
}

/// Schedules of scenario 1 in which a follower parked at the gate.
static PARKED: StdAtomicU64 = StdAtomicU64::new(0);

/// Scenario 1: A (values 0, 1) and B (100, 101) make forced appends to one
/// log neither has touched, so both may create its metric series at once;
/// a reader reads A's receipts as A publishes them. Then every entry must
/// survive recovery. Returns whether a follower parked at the gate.
fn two_forced_appenders() -> bool {
    const LOGS: &[(&str, bool)] = &[("/txn", true)];
    let svc = Checked::new(false, LOGS);
    let published: Arc<Mutex<Vec<Done>>> = Arc::default();
    let svc_b = svc.clone();
    let b = spawn(move || [100, 101].map(|v| svc_b.append(LOGS, 0, v, 40)));
    let (svc_r, from_a) = (svc.clone(), published.clone());
    let reader = spawn(move || {
        for _ in 0..2 {
            for (_, v, r) in from_a.lock().clone() {
                assert_eq!(svc_r.read(r), v, "read-your-writes");
            }
        }
    });
    for v in 0..2 {
        let done = svc.append(LOGS, 0, v, 40);
        assert_eq!(svc.read(done.2), v, "read-your-writes");
        published.lock().push(done);
    }
    reader.join().unwrap();
    let done = [&b.join().unwrap()[..], &published.lock()].concat();
    check_history(&svc, LOGS, done.clone(), &[]);
    let parked = |s: &Sample| {
        s.name == "clio_shard_followers_parked_total" && s.value != MetricValue::Counter(0)
    };
    let parked = svc.metrics().gather().iter().any(parked);
    let recovered = svc.recover();
    for (_, v, r) in done {
        let data = recovered.read_entry(r.addr).unwrap().data;
        assert_eq!(value_of(&data), v, "v{v} did not survive recovery");
    }
    parked
}

/// Scenario 2: an appender fills blocks with about 100-byte buffered
/// appends (every second one seals) beside a cursor opened at the start,
/// which tails when it reaches the end.
fn cursor_beside_sealing_appender() {
    const LOGS: &[(&str, bool)] = &[("/log", false)];
    let svc = Checked::new(false, LOGS);
    let svc_c = svc.clone();
    let scanner = spawn(move || {
        let mut cursor = svc_c.cursor("/log").unwrap();
        let steps = (0..7).filter_map(|_| cursor.next().unwrap());
        steps.map(|e| value_of(&e.data)).collect::<Vec<_>>()
    });
    let done = (0..5).map(|v| svc.append(LOGS, 0, v, 100)).collect();
    check_history(&svc, LOGS, done, &scanner.join().unwrap());
}

/// Scenario 3: an entry's block is on the medium but not in the cache; two
/// readers miss on it together while an appender seals more blocks, whose
/// write-through puts run beside the fill. The two misses make exactly one
/// load: the second either hits the filled block or waits on the first's
/// load, because the first marks the block loading in the same shard-lock
/// hold that found it absent.
fn readers_miss_while_appender_seals() {
    const LOGS: &[(&str, bool)] = &[("/cold", true), ("/hot", false)];
    let svc = Checked::new(true, LOGS);
    let cold = svc.append(LOGS, 0, 7, 40);
    svc.cache().clear();
    let loads = || svc.medium.loads[device_block(&cold.2)].read();
    let before = loads();
    let read = |s: Checked| spawn(move || assert_eq!(s.read(cold.2), 7, "read-your-writes"));
    let readers = [read(svc.clone()), read(svc.clone())];
    let mut done: Vec<Done> = (10..12).map(|v| svc.append(LOGS, 1, v, 100)).collect();
    svc.seal_current_block().unwrap();
    readers.into_iter().for_each(|t| t.join().unwrap());
    let filled = loads() - before;
    assert_eq!(filled, 1, "{filled} loads for two misses");
    assert_eq!(svc.read(cold.2), 7);
    assert_eq!(loads() - before, filled, "the filled block was not cached");
    done.push(cold);
    check_history(&svc, LOGS, done, &[]);
}

/// Runs `model` to its whole budget: DFS (bound 2) first when `dfs`, then
/// the random walk. A `CLIO_CHECK_REPLAY` run is one schedule.
fn check(name: &'static str, dfs: bool, model: fn()) -> Report {
    let dfs = if dfs { schedule_target() } else { 0 };
    let r = Checker::new(name)
        .preemption_bound(2)
        .dfs_budget(dfs)
        .check(model);
    println!("check {name}: {r}");
    let spent = (r.dfs_schedules, r.random_schedules) == (dfs, schedule_target());
    assert!(
        spent || r.dfs_complete || std::env::var_os("CLIO_CHECK_REPLAY").is_some(),
        "{r}"
    );
    r
}

#[test]
fn forced_appenders_are_released_only_when_durable() {
    let r = check("service-forced-appenders", true, || {
        if two_forced_appenders() {
            PARKED.fetch_add(1, StdOrdering::Relaxed);
        }
    });
    // The gate's slow path is explored, not only its polling: a follower
    // outlasts its poll budget and parks, and (no deadlock) is woken.
    let parked = PARKED.load(StdOrdering::Relaxed);
    println!("a follower parked in {parked} of {} schedules", r.schedules);
    assert!(parked > 0 || r.schedules == 1, "no follower parked");
}

#[test]
fn a_cursor_beside_a_sealing_appender_sees_a_prefix_in_order() {
    check("service-cursor-scan", false, cursor_beside_sealing_appender);
}

#[test]
fn two_misses_on_one_block_load_it_once() {
    check(
        "service-single-flight",
        false,
        readers_miss_while_appender_seals,
    );
}

/// Followers do park (scenario 1 asserts that some schedule parks one), so
/// the claim that none does fails, and its failing schedule replays
/// byte-identically from the printed line.
#[test]
fn a_failing_product_schedule_replays_byte_identically() {
    let failure = |c: Checker| {
        let err = catch_unwind(AssertUnwindSafe(|| {
            c.check(|| assert!(!two_forced_appenders(), "a follower parked"))
        }));
        *err.expect_err("some schedule parks a follower")
            .downcast::<String>()
            .unwrap()
    };
    let first = failure(Checker::new("service-no-parking").dfs_budget(0));
    let spec = first
        .split("CLIO_CHECK_REPLAY=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next());
    let (seed, index) = spec
        .and_then(|s| s.split_once(':'))
        .expect("a seed:index replay line");
    let again = failure(
        Checker::new("service-no-parking").replay(seed.parse().unwrap(), index.parse().unwrap()),
    );
    assert_eq!(first, again, "replay must be byte-identical");
    assert!(first.contains("a follower parked"), "{first}");
}
