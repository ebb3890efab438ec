//! Deterministic whole-system simulation of the log service.
//!
//! A seeded virtual-time scheduler (`clio_costmodel::Scheduler`)
//! interleaves several simulated clients against a *real* `LogService`
//! stacked on the fault/crash device. Every source of nondeterminism —
//! scheduling order, workload choices, crash points, torn-tail garbage —
//! derives from one `u64` seed, so any failure replays exactly:
//!
//! ```text
//! CLIO_PROP_SEED=<seed> cargo test -p clio-core --test simulation
//! ```
//!
//! Each run records a history of log-API operations (append receipts,
//! reads, cursor tailing, unique-id lookups, cross-shard batch appends,
//! crash/recover events) and `sim::check_history_with_shards` verifies it
//! against the log model with per-append-domain durability: the service
//! runs with two shards and the two top-level logs route to different
//! domains, so per-shard recovery and cross-shard batch atomicity are
//! both under test. Every seed runs in two configurations: the default,
//! and `verify_appends` on a medium that also garbles a share of its
//! appends, so verified seals, re-placement and displaced receipts meet
//! the same crashes. The seed-sweep width is `CLIO_SIM_SEEDS` (default 5;
//! CI's storm pass uses 25); every seed that ever failed is kept in
//! `sim_seeds.txt` and replayed by every storm beside the fresh ones.

use std::collections::HashMap;
use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_costmodel::{CostModel, Scheduler};
use clio_device::{CrashSwitch, FaultPlan, FaultyDevice, RamTailDevice, SharedDevice};
use clio_testkit::rng::splitmix64;
use clio_testkit::sim::{
    check_history, check_history_with_shards, Addr, EventKind, History, LogScan, Op, Outcome,
    Violation, SYSTEM,
};
use clio_types::{EntryAddr, ManualClock, SeqNo, Timestamp, VolumeSeqId};
use clio_volume::{MemDevicePool, RecordingPool};

const CLIENTS: usize = 4;
/// Top-level logs so each is its own routing root: with `shards: 2` the
/// two consecutive ids land on *different* append domains, exercising
/// cross-shard routing, per-shard recovery, and cross-shard batches.
const LOG_PATHS: [&str; 2] = ["/alpha", "/beta"];
/// Simulated append domains (asserted to really split the logs).
const SHARDS: usize = 2;
/// Segments per run; every segment but the last ends in a crash+recovery.
const SEGMENTS: usize = 3;

/// Log index → shard map for the checker, from the service's own routing.
fn shard_map(svc: &LogService) -> std::collections::BTreeMap<u32, u32> {
    LOG_PATHS
        .iter()
        .enumerate()
        .map(|(log, path)| {
            let id = svc.resolve(path).expect("resolve log");
            (log as u32, svc.shard_of(id))
        })
        .collect()
}

fn encode_payload(value: u64, len: usize) -> Vec<u8> {
    let mut p = format!("v{value:016x};").into_bytes();
    if p.len() < len {
        p.resize(len, b'.');
    }
    p
}

fn decode_value(data: &[u8]) -> Option<u64> {
    if data.len() >= 18 && data[0] == b'v' {
        std::str::from_utf8(&data[1..17])
            .ok()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
    } else {
        None
    }
}

fn conv(addr: EntryAddr) -> Addr {
    Addr {
        vol: addr.volume_index,
        block: addr.block.0,
        slot: addr.slot,
    }
}

fn err_text(e: &clio_types::ClioError) -> String {
    e.to_string()
}

/// Fault-injection handles on every device handed out so far.
type FaultyDevices = Arc<clio_testkit::sync::Mutex<Vec<Arc<FaultyDevice>>>>;

/// Driver state that survives crash/recovery epochs.
struct Driver {
    history: History,
    /// Next unique payload identity.
    next_value: u64,
    /// Next unique client sequence number.
    next_seqno: u32,
    /// Next cursor id (fresh per open, including re-opens after a crash).
    next_cursor: u32,
    /// Acknowledged (addr, value) pairs available for reads.
    readable: Vec<(EntryAddr, u64)>,
    /// Seqno-carrying acknowledged appends: (log, seqno, receipt ts).
    lookups: Vec<(u32, u32, Timestamp)>,
    /// Per-client tailing state surviving crashes: (log, entries seen).
    tails: Vec<Option<(u32, usize)>>,
}

impl Driver {
    fn new() -> Driver {
        Driver {
            history: History::default(),
            next_value: 1,
            next_seqno: 1,
            next_cursor: 0,
            readable: Vec::new(),
            lookups: Vec::new(),
            tails: vec![None; CLIENTS],
        }
    }
}

/// One live (borrowing) cursor; its log and progress live in the driver's
/// per-client tail state, which survives crashes.
struct OpenCursor<'a> {
    id: u32,
    cur: clio_core::read::LogCursor<'a>,
}

/// Runs one segment of client operations against `svc`. Returns `true`
/// if the armed crash switch fired mid-segment (the segment stops there).
fn run_segment(
    svc: &LogService,
    sched: &mut Scheduler,
    cost: &CostModel,
    drv: &mut Driver,
    sw: &Arc<CrashSwitch>,
    garble: Option<&FaultyDevices>,
    steps: usize,
) -> bool {
    let mut cursors: HashMap<u32, OpenCursor<'_>> = HashMap::new();
    for _ in 0..steps {
        let client = sched.pick();
        let now = sched.now_us();
        // Weighted op choice: appends dominate, as in the paper's traces.
        let roll = sched.rng().gen_range(0..100u32);
        if roll < 45 {
            // ---- Append ----
            let log = sched.rng().gen_range(0..LOG_PATHS.len() as u32);
            let forced = sched.rng().gen_bool(0.3);
            let with_seqno = !forced && sched.rng().gen_bool(0.25);
            let len = sched.rng().gen_range(18..120usize);
            let value = drv.next_value;
            drv.next_value += 1;
            let (opts, seqno) = if forced {
                (AppendOpts::forced(), None)
            } else if with_seqno {
                let sq = drv.next_seqno;
                drv.next_seqno += 1;
                (AppendOpts::with_seqno(SeqNo(sq)), Some(sq))
            } else {
                (AppendOpts::standard(), None)
            };
            if let Some(devices) = garble {
                // Now and then the next few data appends of every volume
                // mounted so far come out as garbage (a re-placed block's
                // retries included). Volumes mounted later are spared, so
                // a label is never garbled: labels are not verified.
                if sched.rng().gen_bool(0.15) {
                    let n = sched.rng().gen_range(1..4u32);
                    for dev in devices.lock().iter() {
                        dev.corrupt_next_appends(n);
                    }
                }
            }
            let payload = encode_payload(value, len);
            let op = Op::Append {
                log,
                value,
                forced,
                seqno,
            };
            let result = match svc.append_path(LOG_PATHS[log as usize], &payload, opts) {
                Ok(receipt) => {
                    drv.readable.push((receipt.addr, value));
                    if let Some(sq) = seqno {
                        drv.lookups.push((log, sq, receipt.timestamp));
                    }
                    Ok(Outcome::Receipt {
                        addr: conv(receipt.addr),
                        ts: receipt.timestamp.0,
                    })
                }
                Err(e) => Err(err_text(&e)),
            };
            drv.history
                .push(now, client, EventKind::Call { op, result });
            sched.charge(client, cost.sync_write_us(len));
        } else if roll < 55 {
            // ---- Cross-shard AppendBatch ----
            // Consecutive items alternate logs, so batches of 2+ span both
            // append domains; semantics are per-shard-atomic, which the
            // per-item receipt events model exactly.
            let n = sched.rng().gen_range(2..5usize);
            let forced = sched.rng().gen_bool(0.3);
            let first = sched.rng().gen_range(0..LOG_PATHS.len() as u32);
            let mut items = Vec::with_capacity(n);
            let mut meta = Vec::with_capacity(n);
            for k in 0..n as u32 {
                let log = (first + k) % LOG_PATHS.len() as u32;
                let len = sched.rng().gen_range(18..80usize);
                let value = drv.next_value;
                drv.next_value += 1;
                items.push((
                    LOG_PATHS[log as usize].to_owned(),
                    encode_payload(value, len),
                ));
                meta.push((log, value));
            }
            let opts = if forced {
                AppendOpts::forced()
            } else {
                AppendOpts::standard()
            };
            match svc.append_batch(&items, opts) {
                Ok(receipts) => {
                    for ((log, value), receipt) in meta.iter().zip(&receipts) {
                        drv.readable.push((receipt.addr, *value));
                        drv.history.push(
                            now,
                            client,
                            EventKind::Call {
                                op: Op::Append {
                                    log: *log,
                                    value: *value,
                                    forced,
                                    seqno: None,
                                },
                                result: Ok(Outcome::Receipt {
                                    addr: conv(receipt.addr),
                                    ts: receipt.timestamp.0,
                                }),
                            },
                        );
                    }
                }
                Err(e) => {
                    // The batch failed as a unit (a crash mid-batch): every
                    // item is indeterminate — sub-batches on earlier shards
                    // may have reached the medium before the failure.
                    let msg = err_text(&e);
                    for (log, value) in &meta {
                        drv.history.push(
                            now,
                            client,
                            EventKind::Call {
                                op: Op::Append {
                                    log: *log,
                                    value: *value,
                                    forced,
                                    seqno: None,
                                },
                                result: Err(msg.clone()),
                            },
                        );
                    }
                }
            }
            sched.charge(client, cost.sync_write_us(n * 48));
        } else if roll < 70 && !drv.readable.is_empty() {
            // ---- ReadAt ----
            let pick = sched.rng().gen_range(0..drv.readable.len());
            let (addr, _) = drv.readable[pick];
            let op = Op::ReadAt { addr: conv(addr) };
            let result = match svc.read_entry(addr) {
                Ok(entry) => match decode_value(&entry.data) {
                    Some(v) => Ok(Outcome::Value(v)),
                    None => Err("payload did not decode".to_owned()),
                },
                Err(e) => Err(err_text(&e)),
            };
            drv.history
                .push(now, client, EventKind::Call { op, result });
            sched.charge(client, cost.read_us(1, 0));
        } else if roll < 90 {
            // ---- CursorNext (tailing) ----
            if let std::collections::hash_map::Entry::Vacant(slot) = cursors.entry(client) {
                // (Re-)open this client's tail. After a crash the cursor is
                // a fresh one; fast-forwarding below re-observes what the
                // client had already seen, which is exactly how the checker
                // verifies resumption without gaps or duplicates.
                let (log, seen) = match drv.tails[client as usize] {
                    Some((log, seen)) => (log, seen),
                    None => (sched.rng().gen_range(0..LOG_PATHS.len() as u32), 0),
                };
                let id = drv.next_cursor;
                drv.next_cursor += 1;
                drv.history
                    .push(now, client, EventKind::CursorOpen { cursor: id, log });
                let cur = match svc.cursor(LOG_PATHS[log as usize]) {
                    Ok(c) => c,
                    Err(e) => {
                        // Record the failed step and leave the tail as-is.
                        drv.history.push(
                            now,
                            client,
                            EventKind::Call {
                                op: Op::CursorNext { cursor: id },
                                result: Err(err_text(&e)),
                            },
                        );
                        sched.charge(client, cost.read_us(1, 0));
                        if sw.crashed() {
                            return true;
                        }
                        continue;
                    }
                };
                let mut oc = OpenCursor { id, cur };
                drv.tails[client as usize] = Some((log, 0));
                for _ in 0..seen {
                    if !cursor_step(svc_now(sched), client, &mut oc, drv, cost, sched) {
                        break;
                    }
                }
                slot.insert(oc);
            }
            let mut oc = cursors
                .remove(&client)
                .expect("cursor just ensured present");
            cursor_step(now, client, &mut oc, drv, cost, sched);
            cursors.insert(client, oc);
        } else if !drv.lookups.is_empty() {
            // ---- FindUnique ----
            let pick = sched.rng().gen_range(0..drv.lookups.len());
            let (log, sq, approx) = drv.lookups[pick];
            let op = Op::FindUnique { log, seqno: sq };
            let result = match svc.find_by_unique_id(LOG_PATHS[log as usize], approx, SeqNo(sq)) {
                Ok(found) => match found {
                    Some(entry) => match decode_value(&entry.data) {
                        Some(v) => Ok(Outcome::Found(Some(v))),
                        None => Err("payload did not decode".to_owned()),
                    },
                    None => Ok(Outcome::Found(None)),
                },
                Err(e) => Err(err_text(&e)),
            };
            drv.history
                .push(now, client, EventKind::Call { op, result });
            sched.charge(client, cost.read_us(3, 0));
        } else {
            // Nothing sensible to do yet; think for a moment.
            sched.charge(client, 100);
        }
        if sw.crashed() {
            return true;
        }
    }
    false
}

fn svc_now(sched: &Scheduler) -> u64 {
    sched.now_us()
}

/// One cursor step: records the observation and advances the client's
/// tail counter. Returns `true` if an entry was observed.
fn cursor_step(
    now: u64,
    client: u32,
    oc: &mut OpenCursor<'_>,
    drv: &mut Driver,
    cost: &CostModel,
    sched: &mut Scheduler,
) -> bool {
    let op = Op::CursorNext { cursor: oc.id };
    let (result, observed) = match oc.cur.next() {
        Ok(Some(entry)) => match decode_value(&entry.data) {
            Some(v) => (Ok(Outcome::Next(Some(v))), true),
            None => (Err("payload did not decode".to_owned()), false),
        },
        Ok(None) => (Ok(Outcome::Next(None)), false),
        Err(e) => (Err(err_text(&e)), false),
    };
    drv.history
        .push(now, client, EventKind::Call { op, result });
    sched.charge(client, cost.read_us(1, 0));
    if observed {
        if let Some((_, seen)) = &mut drv.tails[client as usize] {
            *seen += 1;
        }
    }
    observed
}

/// Scans every log front to back, as recovery verification does.
fn scan_all(svc: &LogService) -> Vec<LogScan> {
    LOG_PATHS
        .iter()
        .enumerate()
        .map(|(log, path)| {
            let mut cur = svc.cursor(path).expect("scan cursor");
            let entries = cur.collect_remaining().expect("scan");
            LogScan {
                log: log as u32,
                values: entries
                    .iter()
                    .filter_map(|e| decode_value(&e.data))
                    .collect(),
            }
        })
        .collect()
}

/// Runs one fully seeded simulation and returns its recorded history
/// plus the log→shard map the checker needs.
fn run_sim(seed: u64, verify: bool) -> (History, std::collections::BTreeMap<u32, u32>) {
    let (h, _, shards) = run_sim_traced(seed, verify);
    (h, shards)
}

/// [`run_sim`], also returning the final service's flight-recorder dump.
/// The sim clock is installed as the span time source, so span start
/// times are virtual microseconds, not host time.
///
/// `verify` turns on `verify_appends` and makes the media write garbage
/// now and then: verification catches each garbled block and re-places
/// it, so the history must satisfy the same log model.
fn run_sim_traced(
    seed: u64,
    verify: bool,
) -> (History, String, std::collections::BTreeMap<u32, u32>) {
    let mut s = seed;
    let sched_seed = splitmix64(&mut s);
    let fault_seed = splitmix64(&mut s);
    let plan_seed = splitmix64(&mut s);
    let ram_tail = splitmix64(&mut s) & 1 == 1;

    // One virtual clock: the scheduler advances it, the service stamps
    // entries with it (each stamp consumes one unique microsecond), and
    // trace spans read it instead of the host clock; the guard restores
    // the host source when the run ends.
    let clock = Arc::new(ManualClock::starting_at(Timestamp(1_000_000)));
    let _vclock = {
        let c = clock.clone();
        clio_obs::clock::install_virtual_us(Arc::new(move || c.now_us()))
    };
    let sw = CrashSwitch::new(fault_seed);
    let inner = Arc::new(MemDevicePool::new(512, 96));
    let sw_pool = sw.clone();
    let faulty: FaultyDevices = Arc::default();
    let faulty_pool = faulty.clone();
    let pool = Arc::new(RecordingPool::wrapping(inner, move |base| {
        // Corruption probabilities stay 0: mid-log garbage is a medium
        // defect, not a crash artifact, and would (correctly) break the
        // prefix model. Crash-point torn tails come from the switch; the
        // verifying configuration garbles data appends through `faulty`.
        let faulty = Arc::new(FaultyDevice::with_switch(
            base,
            FaultPlan {
                seed: plan_seed,
                ..FaultPlan::default()
            },
            sw_pool.clone(),
        ));
        faulty_pool.lock().push(faulty.clone());
        let faulty = faulty as SharedDevice;
        if ram_tail {
            Arc::new(RamTailDevice::new(faulty)) as SharedDevice
        } else {
            faulty
        }
    }));
    let cfg = ServiceConfig {
        block_size: 512,
        fanout: 4,
        cache_blocks: 128,
        shards: SHARDS,
        verify_appends: verify,
        ..ServiceConfig::default()
    };

    let mut sched = Scheduler::new(sched_seed, CLIENTS, clock.clone());
    let cost = CostModel::default();
    let mut drv = Driver::new();

    let mut svc = LogService::create(VolumeSeqId(6), pool.clone(), cfg.clone(), clock.clone())
        .expect("create service");
    for path in LOG_PATHS {
        svc.create_log(path).expect("create log");
    }
    let shards = shard_map(&svc);
    assert_eq!(
        shards
            .values()
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        SHARDS,
        "the simulated logs must span every append domain: {shards:?}"
    );

    for segment in 0..SEGMENTS {
        let last = segment == SEGMENTS - 1;
        if !last {
            // Seed a crash somewhere in this segment: after a small number
            // of device write ops, with a garbage torn tail half the time.
            let after = sched.rng().gen_range(2..30u32);
            let garbage = sched.rng().gen_bool(0.5);
            sw.arm(u64::from(after), garbage);
        }
        let steps = sched.rng().gen_range(40..90usize);
        // Garbling is confined to pure write-once media. A RAM tail gives
        // its block up when the block seals, so a seal that lands as
        // garbage followed by a crash before the re-placement — a double
        // fault — loses entries the tail had already made durable.
        let garble = (verify && !ram_tail).then_some(&faulty);
        run_segment(&svc, &mut sched, &cost, &mut drv, &sw, garble, steps);
        if last {
            break;
        }
        // CRASH — device-fired mid-segment, or a boundary power cut here
        // (dropping the service discards all volatile state either way).
        drv.history.push(sched.now_us(), SYSTEM, EventKind::Crash);
        drop(svc);
        sw.clear();
        let (recovered, _report) =
            LogService::recover(pool.devices(), pool.clone(), cfg.clone(), clock.clone())
                .expect("recover");
        svc = recovered;
        let scans = scan_all(&svc);
        drv.history
            .push(sched.now_us(), SYSTEM, EventKind::Recovered { scans });
        // Modelled restart pause before clients reconnect.
        for c in 0..CLIENTS as u32 {
            sched.charge(c, 50_000);
        }
    }

    svc.flush().expect("final flush");
    let scans = scan_all(&svc);
    drv.history
        .push(sched.now_us(), SYSTEM, EventKind::FinalScan { scans });
    let trace = svc.trace_dump();
    (drv.history, trace, shards)
}

fn replay_seed() -> Option<u64> {
    std::env::var("CLIO_PROP_SEED").ok()?.parse().ok()
}

fn storm_width() -> u64 {
    std::env::var("CLIO_SIM_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

fn check_seed(seed: u64) {
    for verify in [false, true] {
        let (history, trace, shards) = run_sim_traced(seed, verify);
        if let Err(v) = check_history_with_shards(&history, &shards) {
            panic!("{}", failure_report(seed, verify, &v, &history, &trace));
        }
    }
}

/// What a failing seed prints: the violation, the tail of the history,
/// the flight recorder's header and newest spans (virtual time, so they
/// line up with the history), and the replay line.
fn failure_report(
    seed: u64,
    verify: bool,
    violation: &Violation,
    history: &History,
    trace: &str,
) -> String {
    let (header, spans) = trace.split_once('\n').unwrap_or((trace, ""));
    format!(
        "simulation (verify_appends: {verify}) violated the log model: {violation}\n\
         history tail:\n{}\n\
         {header} (newest lines):\n{}\n\
         reproduce with: CLIO_PROP_SEED={seed}",
        tail(&history.render(), 30),
        tail(spans, 40)
    )
}

fn tail(rendered: &str, lines: usize) -> String {
    let all: Vec<&str> = rendered.lines().collect();
    let start = all.len().saturating_sub(lines);
    all[start..].join("\n")
}

// ---------------------------------------------------------------------
// The suite.
// ---------------------------------------------------------------------

/// Default-pass smoke: one seed end to end (honours `CLIO_PROP_SEED`).
#[test]
fn sim_smoke() {
    check_seed(replay_seed().unwrap_or(0xC110_5EED));
}

/// Seed sweep. Default width 5 keeps the debug-mode workspace pass fast;
/// CI's storm invocation sets `CLIO_SIM_SEEDS=25` in release mode.
#[test]
fn sim_storm() {
    if let Some(seed) = replay_seed() {
        check_seed(seed);
        return;
    }
    let corpus = include_str!("sim_seeds.txt")
        .lines()
        .filter_map(|l| l.split('#').next()?.trim().parse::<u64>().ok());
    for seed in corpus.chain(0..storm_width()) {
        check_seed(seed);
    }
}

/// The whole run — interleaving, crash points, torn tails, recovery — is
/// a pure function of the seed: two runs render byte-identically.
#[test]
fn sim_replays_byte_identically() {
    let a = run_sim(42, false).0.render();
    let b = run_sim(42, false).0.render();
    assert_eq!(a, b, "same seed must replay byte-identically");
    let c = run_sim(43, false).0.render();
    assert_ne!(a, c, "different seeds must differ");
}

/// Span tracing rides along without perturbing the simulation: with the
/// default trace ring enabled and the sim clock installed as the span
/// time source, the history still replays byte-identically, and the
/// surviving span trees have the same shape run to run. (Span timings
/// are stripped before comparing, so this checks structure alone; since
/// every span opens and closes at virtual readings, the timings replay
/// too.)
#[test]
fn sim_replays_byte_identically_with_tracing() {
    fn strip_timings(dump: &str) -> String {
        dump.lines()
            .map(|l| {
                l.split_whitespace()
                    .filter(|t| {
                        let timing = t.strip_prefix('+').unwrap_or(t);
                        !(timing.ends_with("us")
                            && timing[..timing.len() - 2]
                                .chars()
                                .all(|c| c.is_ascii_digit()))
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
    let (ha, ta, _) = run_sim_traced(0xC110_5EED, false);
    let (hb, tb, _) = run_sim_traced(0xC110_5EED, false);
    assert_eq!(
        ha.render(),
        hb.render(),
        "tracing must not perturb the interleaving"
    );
    assert!(
        !ta.starts_with("trace ring: 0 span(s)"),
        "the sim must record spans"
    );
    assert!(ta.contains("append"), "the sim must trace appends");
    assert_eq!(
        strip_timings(&ta),
        strip_timings(&tb),
        "span trees must replay structurally identically"
    );
}

/// A deliberately broken test double: the "service" loses a forced entry
/// at recovery and duplicates a cursor observation. The checker must
/// catch both, and the sabotaged history must itself replay
/// byte-identically (so a real failure would shrink and pin the same way).
#[test]
fn sim_broken_double_is_caught_and_replays() {
    let sabotage = |seed: u64| -> (String, String) {
        let (mut h, trace, shards) = run_sim_traced(seed, false);
        // Drop the last surviving entry from the first recovery scan —
        // the kind of bug recovery exists to rule out. The last recovered
        // value is durable (forced or sealed+scanned), so the checker
        // must flag the loss.
        let mut broke = false;
        for e in &mut h.events {
            if let EventKind::Recovered { scans } = &mut e.kind {
                if let Some(scan) = scans.iter_mut().find(|s| !s.values.is_empty()) {
                    scan.values.push(u64::MAX); // phantom entry
                    broke = true;
                    break;
                }
            }
        }
        assert!(broke, "seed produced no recovery scan to sabotage");
        let v = check_history_with_shards(&h, &shards).expect_err("sabotaged history must fail");
        assert!(
            v.rule == "recovery-prefix" || v.rule == "final-scan",
            "unexpected rule {}",
            v.rule
        );
        // What the failing seed would print carries its forensics.
        let report = failure_report(seed, false, &v, &h, &trace);
        for needle in ["history tail:", "trace ring:", "append", "CLIO_PROP_SEED=7"] {
            assert!(report.contains(needle), "no {needle:?} in:\n{report}");
        }
        (v.to_string(), h.render())
    };
    let (v1, h1) = sabotage(7);
    let (v2, h2) = sabotage(7);
    assert_eq!(v1, v2, "violation must replay identically");
    assert_eq!(h1, h2, "sabotaged history must replay identically");
}

/// Regression (PR 1 convention): the canonical durable-loss
/// counterexample, pinned as an explicit named case. A forced append is
/// acknowledged, the server crashes, and recovery comes back empty — the
/// checker must blame `durable-loss` at the recovery event, not merely
/// notice a shorter log.
#[test]
fn regression_sim_lost_forced_append_is_durable_loss() {
    let mut h = History::default();
    h.push(
        1,
        0,
        EventKind::Call {
            op: Op::Append {
                log: 0,
                value: 1,
                forced: true,
                seqno: None,
            },
            result: Ok(Outcome::Receipt {
                addr: Addr {
                    vol: 0,
                    block: 2,
                    slot: 0,
                },
                ts: 1,
            }),
        },
    );
    h.push(2, SYSTEM, EventKind::Crash);
    h.push(
        3,
        SYSTEM,
        EventKind::Recovered {
            scans: vec![LogScan {
                log: 0,
                values: vec![],
            }],
        },
    );
    clio_testkit::prop::check_case("sim_lost_forced_append", &h, |h| {
        let v = check_history(h).expect_err("checker accepted a lost forced append");
        assert_eq!(v.rule, "durable-loss");
        assert_eq!(v.index, 2, "violation must anchor at the recovery event");
    });
}
