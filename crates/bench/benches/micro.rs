//! Microbenchmarks for the hot paths: block building/scanning, entrymap
//! emission and search, the append path, and the block cache.
//!
//! Runs on `clio_testkit::bench` (`harness = false`); tune with
//! `CLIO_BENCH_SAMPLES`, `CLIO_BENCH_SAMPLE_MS`, `CLIO_BENCH_WARMUP_MS`.

use std::collections::BTreeSet;
use std::sync::Arc;

use clio_bench::synth::{SyntheticSource, SYNTH_FILE};
use clio_cache::{BlockCache, CacheKey};
use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_entrymap::harness::build_log;
use clio_entrymap::{EntrymapWriter, Geometry, Locator};
use clio_format::{BlockBuilder, BlockView, EntryForm, EntryHeader};
use clio_testkit::bench::{black_box, Bench};
use clio_testkit::rng::StdRng;
use clio_testkit::sync::{Condvar, Mutex};
use clio_types::crc::crc32;
use clio_types::{BlockNo, LogFileId, ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

fn bench_block_format(c: &mut Bench) {
    let header = EntryHeader::new(
        LogFileId(8),
        EntryForm::Timestamped,
        Some(Timestamp(7)),
        None,
    );
    let payload = [0x5Au8; 48];
    c.bench("block/pack_1k", || {
        let mut builder = BlockBuilder::new(1024, Timestamp(1));
        while let clio_format::PushOutcome::Written(_) =
            builder.push(black_box(&header), black_box(&payload))
        {}
        black_box(builder.finish())
    });
    let img = {
        let mut builder = BlockBuilder::new(1024, Timestamp(1));
        while let clio_format::PushOutcome::Written(_) = builder.push(&header, &payload) {}
        builder.finish()
    };
    c.bench("block/scan_1k", || {
        let view = BlockView::parse(black_box(&img)).expect("valid block");
        let mut n = 0;
        for e in view.entries() {
            let e = e.expect("valid entry");
            n += e.payload.len();
        }
        black_box(n)
    });
    c.bench("crc32/1k", || black_box(crc32(black_box(&img))));
}

fn bench_entrymap(c: &mut Bench) {
    c.bench("entrymap/writer_1k_blocks", || {
        let mut w = EntrymapWriter::new(Geometry::new(16));
        for db in 0..1000u64 {
            black_box(w.begin_block(db));
            w.note_block(db, [LogFileId(8), LogFileId(9)]);
        }
        black_box(w.pending().level_count())
    });
    let placed: BTreeSet<u64> = [100u64].into_iter().collect();
    let src = SyntheticSource::new(16, 1024, 1_000_000, placed);
    let pending = src.pending();
    c.bench("entrymap/locate_1M_distance", || {
        let mut loc = Locator::new(&src, Some(&pending));
        black_box(
            loc.locate_before(black_box(&[SYNTH_FILE]), 999_999)
                .expect("synthetic reads cannot fail"),
        )
    });
    // The shape of the benchmark's `multilog_sparse` volumes: 4 096
    // blocks, 128 log files drawn with a cubic skew, about 7 entries a
    // block, so a level-1 map lists some 50 files and a level-2 map all of
    // them. One forward search for the rarest file per iteration, each
    // from where the last one hit, with no memo: this times what one
    // search decodes.
    let mut rng = StdRng::seed_from_u64(20);
    let plan: Vec<Vec<u16>> = (0..4096)
        .map(|_| (0..7).map(|_| 8 + skewed(&mut rng, 128) as u16).collect())
        .collect();
    let (src, pending) = build_log(16, 1024, &plan);
    let rare = [LogFileId(8 + 127)];
    let mut from = 0u64;
    c.bench("entrymap/locate_sparse_128ids", || {
        let mut loc = Locator::new(&src, Some(&pending));
        let hit = loc
            .locate_at_or_after(black_box(&rare), from)
            .expect("in-memory reads cannot fail");
        from = hit.map_or(0, |db| db + 1);
        black_box(hit)
    });
}

/// An index below `n`, cubically skewed towards 0 (as the benchmark's
/// `multilog_sparse` picks its log files).
fn skewed(rng: &mut StdRng, n: usize) -> usize {
    let u = rng.gen_range(0u32..1 << 24) as f64 / f64::from(1u32 << 24);
    (u * u * u * n as f64) as usize
}

fn bench_service(c: &mut Bench) {
    let mk = || {
        let svc = LogService::create(
            VolumeSeqId(1),
            Arc::new(MemDevicePool::new(1024, 1 << 22)),
            ServiceConfig::default().with_shards(1),
            Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
        )
        .expect("fresh service");
        svc.create_log("/bench").expect("create log");
        svc
    };
    let payload = [0x42u8; 50];
    let svc = mk();
    c.bench("service/append_buffered_50B", || {
        svc.append_path("/bench", black_box(&payload), AppendOpts::standard())
            .expect("append")
    });
    // The same append after 1 000 blocks were sealed with no flush: a
    // buffered append's cost must not depend on how much is unflushed.
    let svc = mk();
    while svc.report().blocks_sealed < 1_000 {
        svc.append_path("/bench", &payload, AppendOpts::standard())
            .expect("append");
    }
    c.bench("service/append_buffered_50B_after_1000_blocks", || {
        svc.append_path("/bench", black_box(&payload), AppendOpts::standard())
            .expect("append")
    });
    let svc = mk();
    c.bench("service/append_forced_50B", || {
        svc.append_path("/bench", black_box(&payload), AppendOpts::forced())
            .expect("append")
    });
    // The router at one shard: an append by id and a 16-item batch take
    // the same routing steps (catalog snapshot, mask 0) as at any shard
    // count — `shards: 1` has no fork of its own.
    let svc = mk();
    let id = svc.resolve("/bench").expect("resolve");
    c.bench("append/shards1", || {
        svc.append(id, black_box(&payload), AppendOpts::standard())
            .expect("append")
    });
    drop(svc);
    let svc = mk();
    let items: Vec<(String, Vec<u8>)> = (0..16)
        .map(|_| ("/bench".to_owned(), payload.to_vec()))
        .collect();
    c.bench("append_batch16/shards1", || {
        svc.append_batch(black_box(&items), AppendOpts::standard())
            .expect("append_batch")
    });
    drop(svc);
    // Read path over a prebuilt log.
    let svc = mk();
    for i in 0..5_000u32 {
        svc.append_path("/bench", &i.to_le_bytes(), AppendOpts::standard())
            .expect("append");
    }
    svc.flush().expect("flush");
    c.bench("service/cursor_scan_5k", || {
        let mut cur = svc.cursor("/bench").expect("cursor");
        let mut n = 0u64;
        while let Some(e) = cur.next().expect("next") {
            n += e.data.len() as u64;
        }
        black_box(n)
    });
    drop(svc);
    // A sparse scan: 64 top-level logs of 8 sublogs each, 60 000 skewed
    // appends, and one pass over the rarest sublog per iteration.
    let svc = mk();
    let mut subs = Vec::new();
    for top in 0..64 {
        svc.create_log(&format!("/p{top}")).expect("create log");
        for sub in 0..8 {
            let path = format!("/p{top}/s{sub}");
            subs.push((svc.create_log(&path).expect("create log"), path));
        }
    }
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..60_000 {
        let (id, _) = subs[skewed(&mut rng, subs.len())];
        svc.append(id, &[0x42u8; 64], AppendOpts::standard())
            .expect("append");
    }
    svc.flush().expect("flush");
    let (_, rarest) = &subs[subs.len() - 1];
    c.bench("service/cursor_sparse_scan", || {
        let mut cur = svc.cursor(rarest).expect("cursor");
        let mut n = 0u64;
        while let Some(e) = cur.next().expect("next") {
            n += e.data.len() as u64;
        }
        black_box(n)
    });
}

fn bench_cache(c: &mut Bench) {
    let cache = BlockCache::new(1024);
    let data = Arc::new(vec![0u8; 1024]);
    for i in 0..1024u64 {
        cache.put(CacheKey::new(0, BlockNo(i)), data.clone());
    }
    let mut i = 0u64;
    c.bench("cache/hit", || {
        i = (i + 1) % 1024;
        black_box(cache.get(CacheKey::new(0, BlockNo(i))))
    });
    let mut j = 10_000u64;
    c.bench("cache/put_evict", || {
        j += 1;
        cache.put(CacheKey::new(0, BlockNo(j)), data.clone());
    });
}

/// What the commit gate's poll budget is sized against: one condvar round
/// trip between two threads — this thread wakes the other and parks, the
/// other wakes it back — which is what a follower that parks behind a
/// commit, and the leader that has to wake it, pay between them.
fn bench_sync(c: &mut Bench) {
    #[derive(PartialEq)]
    enum Turn {
        Ping,
        Pong,
        Done,
    }
    let pair = Arc::new((Mutex::new(Turn::Ping), Condvar::new()));
    let ponger = {
        let pair = pair.clone();
        std::thread::spawn(move || {
            let (turn, cv) = &*pair;
            loop {
                let mut g = cv.wait_while(turn.lock(), |t| *t == Turn::Ping);
                if *g == Turn::Done {
                    return;
                }
                *g = Turn::Ping;
                drop(g);
                cv.notify_all();
            }
        })
    };
    let (turn, cv) = &*pair;
    c.bench("sync/park_unpark", || {
        *turn.lock() = Turn::Pong;
        cv.notify_all();
        drop(cv.wait_while(turn.lock(), |t| *t == Turn::Pong));
    });
    *turn.lock() = Turn::Done;
    cv.notify_all();
    ponger.join().expect("ponger thread");
}

fn main() {
    let mut c = Bench::from_env();
    bench_block_format(&mut c);
    bench_entrymap(&mut c);
    bench_service(&mut c);
    bench_cache(&mut c);
    bench_sync(&mut c);
}
