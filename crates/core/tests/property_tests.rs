//! Model-based property tests: the service against an in-memory oracle.
//! Runs on `clio_testkit::prop` (`CLIO_PROP_CASES` / `CLIO_PROP_SEED`).

use std::collections::BTreeMap;
use std::sync::Arc;

use clio_core::service::{AppendOpts, Durability, LogService, SharedOpenBlock};
use clio_core::ServiceConfig;
use clio_format::{BlockBuilder, BlockView, EntryForm, EntryHeader, PushOutcome};
use clio_testkit::prop::{
    any_u32, any_u64, bools, bytes, check, just, option_of, pair, u16s, u8s, vec_of, weighted, Gen,
};
use clio_types::{LogFileId, ManualClock, SeqNo, Timestamp, VolumeSeqId};
use clio_volume::{MemDevicePool, RecordingPool};

/// One modelled operation.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Append {
        log: u8,
        len: u16,
        forced: bool,
        minimal: bool,
        seqno: Option<u32>,
    },
    Flush,
    Seal(u8),
}

fn arb_op() -> Gen<Op> {
    let append = {
        let log = u8s(0..6);
        let len = u16s(0..900);
        let flag = bools();
        let seqno = option_of(&any_u32());
        Gen::new(move |src| Op::Append {
            log: log.generate(src),
            len: len.generate(src),
            forced: flag.generate(src),
            minimal: flag.generate(src),
            seqno: seqno.generate(src),
        })
    };
    weighted(vec![
        (1, u8s(0..6).map(Op::Create)),
        (8, append),
        (1, just(Op::Flush)),
        (1, u8s(0..6).map(Op::Seal)),
    ])
}

/// The oracle: per-log entry payloads in order, plus sealed flags.
#[derive(Debug, Default)]
struct Model {
    logs: BTreeMap<u8, (bool, Vec<Vec<u8>>)>, // (sealed, entries)
}

#[test]
fn service_matches_in_memory_model() {
    let g = vec_of(&arb_op(), 1..120);
    check("service_matches_in_memory_model", 24, &g, |ops| {
        let svc = LogService::create(
            VolumeSeqId(1),
            Arc::new(MemDevicePool::new(256, 1 << 14)),
            ServiceConfig::small(),
            Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
        )
        .expect("create service");
        let mut model = Model::default();
        let mut counter = 0u32;
        for op in ops {
            match op {
                Op::Create(l) => {
                    let existed = model.logs.contains_key(l);
                    let r = svc.create_log(&format!("/log{l}"));
                    assert_eq!(r.is_err(), existed, "create mismatch for {l}");
                    if !existed {
                        model.logs.insert(*l, (false, Vec::new()));
                    }
                }
                Op::Append {
                    log,
                    len,
                    forced,
                    minimal,
                    seqno,
                } => {
                    counter += 1;
                    let mut payload = format!("{counter}:").into_bytes();
                    payload.resize((*len).max(4) as usize, b'q');
                    let opts = AppendOpts {
                        durability: if *forced {
                            Durability::Forced
                        } else {
                            Durability::Buffered
                        },
                        timestamped: !*minimal,
                        seqno: seqno.map(SeqNo),
                    };
                    let r = svc.append_path(&format!("/log{log}"), &payload, opts);
                    match model.logs.get_mut(log) {
                        Some((false, entries)) => {
                            assert!(r.is_ok(), "append failed: {:?}", r.err());
                            entries.push(payload);
                        }
                        Some((true, _)) => assert!(r.is_err(), "append to sealed log succeeded"),
                        None => assert!(r.is_err(), "append to missing log succeeded"),
                    }
                }
                Op::Flush => {
                    assert!(svc.flush().is_ok());
                }
                Op::Seal(l) => {
                    if let Some((sealed, _)) = model.logs.get_mut(l) {
                        if !*sealed {
                            let id = svc.resolve(&format!("/log{l}")).expect("exists in model");
                            assert!(svc.seal_log(id).is_ok());
                            *sealed = true;
                        }
                    }
                }
            }
        }
        // Every log reads back exactly its model contents, in order,
        // forward and backward.
        for (l, (_, entries)) in &model.logs {
            let mut cur = svc.cursor(&format!("/log{l}")).expect("cursor");
            let got = cur.collect_remaining().expect("scan");
            assert_eq!(got.len(), entries.len(), "log {l} count");
            for (want, have) in entries.iter().zip(&got) {
                assert_eq!(want, &have.data);
            }
            let mut cur = svc.cursor_from_end(&format!("/log{l}")).expect("cursor");
            let mut back = Vec::new();
            while let Some(e) = cur.prev().expect("prev") {
                back.push(e.data);
            }
            back.reverse();
            assert_eq!(&back, entries, "log {l} backward scan");
        }
    });
}

#[test]
fn crash_never_loses_forced_prefix() {
    let g = pair(&vec_of(&pair(&u16s(1..600), &bools()), 1..60), &any_u64());
    check("crash_never_loses_forced_prefix", 24, &g, |(lens, seed)| {
        // Deterministic single-log run with a crash at the end; the
        // survivors must be a prefix covering every forced append.
        let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(
            256,
            1 << 14,
        ))));
        let ck = Arc::new(ManualClock::starting_at(Timestamp::from_secs(
            seed % 1000 + 1,
        )));
        let cfg = ServiceConfig::small();
        let mut forced_prefix = 0usize;
        {
            let svc = LogService::create(VolumeSeqId(2), pool.clone(), cfg.clone(), ck.clone())
                .expect("create");
            svc.create_log("/p").expect("create log");
            for (i, (len, forced)) in lens.iter().enumerate() {
                let mut payload = format!("e{i}:").into_bytes();
                payload.resize(*len as usize + 4, b'z');
                let opts = if *forced {
                    AppendOpts::forced()
                } else {
                    AppendOpts::standard()
                };
                svc.append_path("/p", &payload, opts).expect("append");
                if *forced {
                    forced_prefix = i + 1;
                }
            }
        }
        let (svc, _) = LogService::recover(pool.devices(), pool.clone(), cfg, ck).expect("recover");
        let mut cur = svc.cursor("/p").expect("cursor");
        let got = cur.collect_remaining().expect("scan");
        assert!(
            got.len() >= forced_prefix,
            "{} < {forced_prefix}",
            got.len()
        );
        assert!(got.len() <= lens.len());
        for (i, e) in got.iter().enumerate() {
            assert!(
                e.data.starts_with(format!("e{i}:").as_bytes()),
                "entry {i} wrong"
            );
        }
    });
}

/// One step of a catalog history.
#[derive(Debug, Clone)]
enum CatalogOp {
    /// One 1-byte append to every active log: fills blocks, and keeps the
    /// entrymap records due at a boundary wider than one 256-byte block.
    Round,
    /// `create_log` under an existing log (`parent` picks one, or the
    /// root) with a name of `len` bytes.
    Create {
        parent: u16,
        len: u8,
    },
    Seal(u16),
    Rename {
        log: u16,
        len: u8,
    },
    SetPerms {
        log: u16,
        perms: u8,
    },
}

fn arb_catalog_op() -> Gen<CatalogOp> {
    let (pick, len, perms) = (u16s(0..u16::MAX), u8s(1..181), u8s(0..4));
    let create = {
        let (pick, len) = (pick.clone(), len.clone());
        Gen::new(move |src| CatalogOp::Create {
            parent: pick.generate(src),
            len: len.generate(src),
        })
    };
    let rename = {
        let pick = pick.clone();
        Gen::new(move |src| CatalogOp::Rename {
            log: pick.generate(src),
            len: len.generate(src),
        })
    };
    let set_perms = {
        let pick = pick.clone();
        Gen::new(move |src| CatalogOp::SetPerms {
            log: pick.generate(src),
            perms: perms.generate(src),
        })
    };
    weighted(vec![
        (6, just(CatalogOp::Round)),
        (4, create),
        (1, pick.map(CatalogOp::Seal)),
        (1, rename),
        (1, set_perms),
    ])
}

/// Logs appended to every round; `seal`/`rename`/`set_perms` leave them be.
const ACTIVE_LOGS: usize = 96;

/// Runs `ops` on a fresh service of `shards` append domains, crashes it
/// without a flush and recovers: every catalog change was acknowledged, so
/// the recovered catalog must be the one the crash interrupted.
fn catalog_round_trips_a_crash(shards: usize, ops: &[CatalogOp]) {
    use clio_format::records::PERM_APPEND;

    // 160-block volumes: long histories switch volumes, so recovery also
    // replays from (multi-block) checkpoints.
    let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(256, 160))));
    let ck = Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)));
    let cfg = ServiceConfig::small().with_shards(shards);
    let svc = LogService::create(VolumeSeqId(3), pool.clone(), cfg.clone(), ck.clone())
        .expect("create service");
    let active: Vec<LogFileId> = (0..ACTIVE_LOGS)
        .map(|i| {
            svc.create_log(&format!("/a{i}"))
                .expect("create active log")
        })
        .collect();
    // Logs the history created; the catalog operations pick among these.
    let mut made: Vec<LogFileId> = Vec::new();
    let mut names = 0u32;
    let mut fresh_name = |len: u8| {
        names += 1;
        let mut name = format!("{names:x}");
        while name.len() < usize::from(len) {
            name.push('n');
        }
        name
    };
    for op in ops {
        let pick = |i: u16| made.get(usize::from(i) % made.len().max(1)).copied();
        match op {
            CatalogOp::Round => {
                for &id in &active {
                    svc.append(id, b"r", AppendOpts::minimal()).expect("append");
                }
            }
            CatalogOp::Create { parent, len } => {
                let all = active.len() + made.len() + 1;
                let parent = match usize::from(*parent) % all {
                    0 => String::new(),
                    i if i <= active.len() => svc.path_of(active[i - 1]).expect("path"),
                    i => svc.path_of(made[i - 1 - active.len()]).expect("path"),
                };
                let path = format!("{parent}/{}", fresh_name(*len));
                made.push(svc.create_log(&path).expect("create_log"));
            }
            CatalogOp::Seal(log) => {
                if let Some(id) = pick(*log) {
                    svc.seal_log(id).expect("seal_log");
                }
            }
            CatalogOp::Rename { log, len } => {
                if let Some(id) = pick(*log) {
                    svc.rename(id, &fresh_name(*len)).expect("rename");
                }
            }
            CatalogOp::SetPerms { log, perms } => {
                if let Some(id) = pick(*log) {
                    svc.set_perms(id, u16::from(*perms)).expect("set_perms");
                }
            }
        }
    }
    let before: Vec<_> = active
        .iter()
        .chain(&made)
        .map(|&id| {
            (
                svc.path_of(id).expect("path"),
                svc.attrs(id).expect("attrs"),
            )
        })
        .collect();
    drop(svc); // crash, nothing flushed

    let (svc, _) = LogService::recover(pool.devices(), pool.clone(), cfg, ck).expect("recover");
    for (path, attrs) in &before {
        let id = svc.resolve(path).expect("an acknowledged log file is lost");
        assert_eq!(id, attrs.id, "{path}");
        assert_eq!(&svc.attrs(id).expect("attrs"), attrs, "{path}");
        // The shard the log routes to holds the same descriptor.
        let appendable = !attrs.sealed && attrs.perms & PERM_APPEND != 0;
        let r = svc.append(id, b"after", AppendOpts::standard());
        assert_eq!(r.is_ok(), appendable, "{path}: {r:?}");
    }
    // No id is handed out twice.
    let fresh = svc.create_log("/fresh").expect("create after recovery");
    assert!(
        before.iter().all(|(_, a)| a.id < fresh),
        "{fresh} re-issued"
    );
}

#[test]
fn recovered_catalog_equals_the_pre_crash_catalog() {
    let g = vec_of(&arb_catalog_op(), 1..80);
    check(
        "recovered_catalog_equals_the_pre_crash_catalog",
        16,
        &g,
        |ops| {
            catalog_round_trips_a_crash(1, ops);
            catalog_round_trips_a_crash(4, ops);
        },
    );
}

/// One step of a sparse-read history.
#[derive(Debug, Clone)]
enum SparseOp {
    /// `count` appends over the 96 logs, skewed (a few busy logs, many
    /// rare ones), one in 32 forced, all derived from `seed`.
    Burst {
        seed: u64,
        count: u8,
    },
    Flush,
    /// Opens a cursor over log `log` — a top-level log reads its seven
    /// sublogs too — at the start, or at the end and stepped back once.
    Open {
        log: u16,
        from_end: bool,
    },
    /// Moves open cursor `cursor` `times` steps one way.
    Step {
        cursor: u8,
        forward: bool,
        times: u8,
    },
}

fn arb_sparse_op() -> Gen<SparseOp> {
    let burst = {
        let (seed, count) = (any_u64(), u8s(8..48));
        Gen::new(move |src| SparseOp::Burst {
            seed: seed.generate(src),
            count: count.generate(src),
        })
    };
    let open = {
        let (log, from_end) = (u16s(0..u16::MAX), bools());
        Gen::new(move |src| SparseOp::Open {
            log: log.generate(src),
            from_end: from_end.generate(src),
        })
    };
    let step = {
        let (cursor, forward, times) = (u8s(0..u8::MAX), bools(), u8s(1..12));
        Gen::new(move |src| SparseOp::Step {
            cursor: cursor.generate(src),
            forward: forward.generate(src),
            times: times.generate(src),
        })
    };
    weighted(vec![
        (6, burst),
        (1, just(SparseOp::Flush)),
        (2, open),
        (6, step),
    ])
}

/// Where a cursor stands in the list of its closure's entries, as
/// `ShardCursor` defines it: *on* the entry it last returned going
/// forward (`prev()` then yields the one before it), or just *before* the
/// entry it last returned going backward.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ModelPos {
    Start,
    On(usize),
    Before(usize),
}

const SPARSE_TOPS: usize = 12;
const SPARSE_SUBS: usize = 7;
const SPARSE_APPENDS: usize = 2000;

/// Runs `ops` on a fresh service of `shards` append domains — 96 logs on
/// 256-byte blocks, so the entrymap records due at a boundary overflow a
/// block and are read back as `continued` chains, over 128-block volumes —
/// and checks every cursor movement against the model: cursors are opened
/// mid-history and stepped between appends, so what they remember (held
/// block, entrymap maps) is used while the log grows under them.
fn sparse_cursors_follow_the_model(shards: usize, ops: &[SparseOp]) {
    use clio_testkit::rng::StdRng;

    let svc = LogService::create(
        VolumeSeqId(5),
        Arc::new(MemDevicePool::new(256, 128)),
        ServiceConfig::small().with_shards(shards),
        Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
    )
    .expect("create service");
    // logs[top * 8] is a top-level log, the seven after it its sublogs.
    let mut logs: Vec<(String, LogFileId)> = Vec::new();
    for top in 0..SPARSE_TOPS {
        let path = format!("/t{top}");
        logs.push((path.clone(), svc.create_log(&path).expect("create")));
        for sub in 0..SPARSE_SUBS {
            let path = format!("/t{top}/s{sub}");
            logs.push((path.clone(), svc.create_log(&path).expect("create")));
        }
    }
    // Every acknowledged append, in order: (index into `logs`, payload).
    let mut history: Vec<(usize, Vec<u8>)> = Vec::new();
    // The entries of cursor closure `log`, as indexes into `history`.
    let closure = |history: &[(usize, Vec<u8>)], log: usize| -> Vec<usize> {
        let covers = |l: usize| {
            l == log
                || (log.is_multiple_of(SPARSE_SUBS + 1)
                    && l / (SPARSE_SUBS + 1) == log / (SPARSE_SUBS + 1))
        };
        (0..history.len())
            .filter(|i| covers(history[*i].0))
            .collect()
    };
    let burst = |history: &mut Vec<(usize, Vec<u8>)>, seed: u64, count: usize| {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..count {
            let u = rng.gen_range(0u32..1 << 20) as f64 / f64::from(1u32 << 20);
            let log = ((u * u * u) * logs.len() as f64) as usize;
            let mut payload = format!("{}:", history.len()).into_bytes();
            payload.resize(payload.len() + rng.gen_range(0usize..40), b's');
            let opts = if rng.gen_range(0u32..32) == 0 {
                AppendOpts::forced()
            } else {
                AppendOpts::standard()
            };
            svc.append(logs[log].1, &payload, opts).expect("append");
            history.push((log, payload));
        }
    };
    let mut cursors: Vec<(usize, ModelPos, clio_core::LogCursor<'_>)> = Vec::new();
    let step = |history: &[(usize, Vec<u8>)],
                (log, pos, cur): &mut (usize, ModelPos, clio_core::LogCursor<'_>),
                forward: bool| {
        let list = closure(history, *log);
        let (want, next_pos) = if forward {
            let i = match *pos {
                ModelPos::Start => 0,
                ModelPos::On(i) => i + 1,
                ModelPos::Before(i) => i,
            };
            match list.get(i) {
                Some(h) => (Some(*h), ModelPos::On(i)),
                None => (None, *pos),
            }
        } else {
            match *pos {
                ModelPos::On(i) | ModelPos::Before(i) if i > 0 => {
                    (Some(list[i - 1]), ModelPos::Before(i - 1))
                }
                _ => (None, ModelPos::Start),
            }
        };
        let got = if forward { cur.next() } else { cur.prev() }.expect("cursor step");
        let want = want.map(|h| (logs[history[h].0].1, history[h].1.clone()));
        assert_eq!(
            got.map(|e| (e.id, e.data)),
            want,
            "shards={shards} cursor over {} at {pos:?}, forward={forward}",
            logs[*log].0
        );
        *pos = next_pos;
    };
    for op in ops {
        match op {
            SparseOp::Burst { seed, count } => burst(&mut history, *seed, usize::from(*count)),
            SparseOp::Flush => svc.flush().expect("flush"),
            SparseOp::Open { log, from_end } => {
                let log = usize::from(*log) % logs.len();
                // `prev()` from the end walks the snapshot pinned at
                // creation, so take that step before the log grows. (The
                // model's "past the end" is on a would-be next entry.)
                let mut opened = if *from_end {
                    let cur = svc.cursor_from_end(&logs[log].0).expect("cursor");
                    (log, ModelPos::On(closure(&history, log).len()), cur)
                } else {
                    let cur = svc.cursor(&logs[log].0).expect("cursor");
                    (log, ModelPos::Start, cur)
                };
                if *from_end {
                    step(&history, &mut opened, false);
                }
                if cursors.len() == 8 {
                    cursors.remove(0);
                }
                cursors.push(opened);
            }
            SparseOp::Step {
                cursor,
                forward,
                times,
            } => {
                if !cursors.is_empty() {
                    let at = usize::from(*cursor) % cursors.len();
                    for _ in 0..*times {
                        step(&history, &mut cursors[at], *forward);
                    }
                }
            }
        }
    }
    // Top the history up, every cursor moving between bursts, then run
    // each cursor to the end and all the way back.
    let mut round = 0u64;
    while history.len() < SPARSE_APPENDS {
        round += 1;
        burst(&mut history, round, 32);
        for c in &mut cursors {
            step(&history, c, !round.is_multiple_of(3));
        }
    }
    for c in &mut cursors {
        let len = closure(&history, c.0).len();
        for _ in 0..=len {
            step(&history, c, true);
        }
        assert_eq!(
            c.1,
            if len == 0 {
                ModelPos::Start
            } else {
                ModelPos::On(len - 1)
            }
        );
        for _ in 0..=len {
            step(&history, c, false);
        }
        assert_eq!(c.1, ModelPos::Start);
    }
}

#[test]
fn sparse_cursors_match_the_model() {
    let g = vec_of(&arb_sparse_op(), 40..200);
    check("sparse_cursors_match_the_model", 8, &g, |ops| {
        sparse_cursors_follow_the_model(1, ops);
        sparse_cursors_follow_the_model(4, ops);
    });
}

/// The shared open block defers `finish()` to whoever reads it; whatever
/// the interleaving of pushes and reads, each materialised image must be
/// what an eager `finish()` after the same pushes would have produced.
#[test]
fn materialised_open_block_images_equal_eager_finish() {
    // (payload, timestamped header?, read the block after this push?)
    let step = pair(&bytes(0..90), &pair(&bools(), &bools()));
    let g = pair(&vec_of(&step, 0..40), &any_u64());
    check(
        "materialised_open_block_images_equal_eager_finish",
        256,
        &g,
        |(steps, first_ts)| {
            let mut eager = BlockBuilder::new(256, Timestamp(*first_ts));
            let shared = SharedOpenBlock::new(eager.clone());
            for (i, (payload, (timestamped, read))) in steps.iter().enumerate() {
                let header = if *timestamped {
                    let ts = Some(Timestamp(i as u64));
                    EntryHeader::new(LogFileId(9), EntryForm::Timestamped, ts, None)
                } else {
                    EntryHeader::new(LogFileId(8), EntryForm::Minimal, None, None)
                };
                // Records that do not fit are refused by both, identically.
                let out = shared.push(&header, payload);
                assert_eq!(out, eager.push(&header, payload));
                if *read || matches!(out, PushOutcome::NoSpace { .. }) {
                    let img = shared.image();
                    let view = BlockView::parse(&img).expect("image carries a valid CRC");
                    assert_eq!(view.count(), eager.count());
                    assert_eq!(*img, eager.finish());
                    // An unchanged block is served from the cache.
                    assert!(Arc::ptr_eq(&img, &shared.image()));
                }
            }
            assert_eq!(*shared.image(), eager.finish());
        },
    );
}
