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
use clio_volume::MemDevicePool;

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
        use clio_volume::RecordingPool;
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
