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
