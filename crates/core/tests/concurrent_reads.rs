//! Multi-threaded stress tests for the lock-free read path.
//!
//! The write-once medium makes sealed blocks immutable, so reads run
//! against published [`ReadView`] snapshots and never take the append-side
//! state mutex. These tests prove it: readers chew through entries while a
//! writer appends concurrently, every receipt handed out before a flush is
//! immediately readable, no reader ever observes a torn entry, and the
//! sharded cache's per-shard counters stay consistent with the totals.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_testkit::sync::Mutex;
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

fn service() -> Arc<LogService> {
    Arc::new(
        LogService::create(
            VolumeSeqId(1),
            Arc::new(MemDevicePool::new(256, 8192)),
            ServiceConfig::small(),
            Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
        )
        .unwrap(),
    )
}

/// The payload for entry `i`: an index header plus a repeating fill byte,
/// so a torn or cross-wired read is detectable from the bytes alone.
fn payload(i: u64) -> Vec<u8> {
    let fill = (i % 251) as u8;
    let mut p = i.to_le_bytes().to_vec();
    p.extend(std::iter::repeat_n(fill, 5 + (i % 40) as usize));
    p
}

fn check_payload(data: &[u8]) {
    let i = u64::from_le_bytes(data[..8].try_into().unwrap());
    let expect = payload(i);
    assert_eq!(data, expect, "torn or mismatched entry {i}");
}

/// A writer appends (mostly buffered, occasionally forced) while four
/// readers hammer random receipts and cursor scans. Every receipt is
/// readable the moment it is issued — before any flush — and every entry
/// read back is intact.
#[test]
fn readers_race_a_live_writer() {
    const ENTRIES: u64 = 400;
    const READERS: usize = 4;

    let svc = service();
    svc.create_log("/stress").unwrap();
    let receipts: Arc<Mutex<Vec<clio_types::EntryAddr>>> =
        Arc::new(Mutex::new(Vec::with_capacity(ENTRIES as usize)));
    let done = Arc::new(AtomicBool::new(false));
    let reads_done = Arc::new(AtomicU64::new(0));

    let writer = {
        let svc = svc.clone();
        let receipts = receipts.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let id = svc.resolve("/stress").unwrap();
            for i in 0..ENTRIES {
                let opts = if i % 64 == 63 {
                    AppendOpts::forced()
                } else {
                    AppendOpts::standard()
                };
                let r = svc.append(id, &payload(i), opts).unwrap();
                // The receipt must be readable immediately, before any
                // flush: buffered entries live in the open block the
                // published snapshot shares with the appender.
                let e = svc.read_entry(r.addr).unwrap();
                assert_eq!(e.data, payload(i));
                receipts.lock().push(r.addr);
            }
            done.store(true, Ordering::Release);
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let svc = svc.clone();
            let receipts = receipts.clone();
            let done = done.clone();
            let reads_done = reads_done.clone();
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                let mut x = 0x9E37_79B9u64 + t as u64;
                while !(done.load(Ordering::Acquire) && rounds > 0) {
                    let known: Vec<_> = receipts.lock().clone();
                    if known.is_empty() {
                        std::thread::yield_now();
                        continue;
                    }
                    // Random point reads over everything appended so far.
                    for _ in 0..32 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let addr = known[(x >> 33) as usize % known.len()];
                        let e = svc.read_entry(addr).unwrap();
                        check_payload(&e.data);
                        reads_done.fetch_add(1, Ordering::Relaxed);
                    }
                    // A cursor scan sees a consistent snapshot: at least as
                    // many entries as receipts existed when it started, all
                    // intact, indexes strictly increasing.
                    let floor = known.len() as u64;
                    let mut cur = svc.cursor("/stress").unwrap();
                    let mut count = 0u64;
                    let mut last = None;
                    while let Some(e) = cur.next().unwrap() {
                        check_payload(&e.data);
                        let i = u64::from_le_bytes(e.data[..8].try_into().unwrap());
                        if let Some(prev) = last {
                            assert!(i > prev, "cursor went backwards: {prev} then {i}");
                        }
                        last = Some(i);
                        count += 1;
                        reads_done.fetch_add(1, Ordering::Relaxed);
                    }
                    assert!(
                        count >= floor,
                        "cursor saw {count} entries, {floor} receipts were already issued"
                    );
                    rounds += 1;
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert!(reads_done.load(Ordering::Relaxed) > 0);

    // Everything is still there after the dust settles.
    let mut cur = svc.cursor("/stress").unwrap();
    let all = cur.collect_remaining().unwrap();
    assert_eq!(all.len() as u64, ENTRIES);

    // Sharded cache bookkeeping: per-shard counters sum to the totals, and
    // residency never exceeds capacity.
    let cache = svc.cache();
    let totals = cache.stats();
    let (mut hits, mut misses) = (0, 0);
    for s in 0..cache.shard_count() {
        let st = cache.shard_stats(s);
        hits += st.hits;
        misses += st.misses;
    }
    assert_eq!(hits, totals.hits);
    assert_eq!(misses, totals.misses);
    assert!(cache.len() <= svc.config().cache_blocks);
}

/// Readers hammer the newest receipts — entries still in the open block,
/// or in a block that sealed a moment ago — while the writer fills and
/// seals block after block with buffered appends. The open block is shared
/// with the appender rather than republished per append, so this is the
/// race the shared block's leaf mutex exists for: every read must return
/// the intact entry, and the writer must not have published per append.
#[test]
fn readers_hammer_the_open_block_while_the_writer_fills_and_seals_it() {
    const ENTRIES: u64 = 3000;
    const READERS: usize = 3;

    let svc = service();
    svc.create_log("/hot").unwrap();
    let receipts: Arc<Mutex<Vec<clio_types::EntryAddr>>> =
        Arc::new(Mutex::new(Vec::with_capacity(ENTRIES as usize)));
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(std::sync::Barrier::new(READERS + 1));
    let publishes = svc.metrics().counter("clio_core_view_publishes_total");
    let publishes_before = publishes.get();
    let sealed_before = svc.report().blocks_sealed;

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (svc, receipts, done, start) =
                (svc.clone(), receipts.clone(), done.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut newest_seen = 0u64;
                let mut reads = 0u64;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    // The newest few receipts: the open block's entries.
                    let tail: Vec<_> = {
                        let g = receipts.lock();
                        g.iter().rev().take(4).copied().collect()
                    };
                    for addr in &tail {
                        let e = svc.read_entry(*addr).unwrap();
                        check_payload(&e.data);
                        assert_eq!(e.addr, *addr);
                        reads += 1;
                    }
                    if let Some(addr) = tail.first() {
                        let data = svc.read_entry(*addr).unwrap().data;
                        let i = u64::from_le_bytes(data[..8].try_into().unwrap());
                        assert!(i >= newest_seen, "newest receipt went backwards");
                        newest_seen = i;
                    }
                    if finished {
                        break;
                    }
                }
                assert_eq!(newest_seen, ENTRIES - 1);
                reads
            })
        })
        .collect();

    let id = svc.resolve("/hot").unwrap();
    start.wait();
    for i in 0..ENTRIES {
        let r = svc.append(id, &payload(i), AppendOpts::standard()).unwrap();
        receipts.lock().push(r.addr);
    }
    done.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }

    let sealed = svc.report().blocks_sealed - sealed_before;
    assert!(sealed > 100, "the writer must fill and seal many blocks");
    let published = publishes.get() - publishes_before;
    assert!(
        published <= sealed + 2,
        "{published} publishes for {sealed} sealed blocks: readers were served by republishing"
    );
    let mut cur = svc.cursor("/hot").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len() as u64, ENTRIES);
}

/// Readers make progress while the append-side state mutex is *held*: the
/// read path acquires no append lock, by construction.
#[test]
fn reads_proceed_while_append_lock_is_held() {
    let svc = service();
    svc.create_log("/pinned").unwrap();
    let mut addrs = Vec::new();
    for i in 0..50u64 {
        addrs.push(
            svc.append_path("/pinned", &payload(i), AppendOpts::standard())
                .unwrap()
                .addr,
        );
    }
    svc.flush().unwrap();

    let (tx, rx) = std::sync::mpsc::channel();
    svc.while_append_locked(|| {
        let svc2 = svc.clone();
        let addrs = addrs.clone();
        std::thread::spawn(move || {
            for addr in &addrs {
                check_payload(&svc2.read_entry(*addr).unwrap().data);
            }
            let mut cur = svc2.cursor("/pinned").unwrap();
            let n = cur.collect_remaining().unwrap().len();
            tx.send(n).unwrap();
        });
        // If any read needed the append lock this would deadlock; the
        // timeout turns that hang into a test failure.
        let n = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("readers blocked on the append lock");
        assert_eq!(n, 50);
    });
}

/// A cursor pinned before a burst of appends still tails the log: it
/// refreshes its snapshot only when it crosses the pinned watermark.
#[test]
fn cursors_tail_across_snapshot_refreshes() {
    let svc = service();
    svc.create_log("/tail").unwrap();
    for i in 0..10u64 {
        svc.append_path("/tail", &payload(i), AppendOpts::standard())
            .unwrap();
    }
    let mut cur = svc.cursor("/tail").unwrap();
    for i in 0..10u64 {
        assert_eq!(cur.next().unwrap().unwrap().data, payload(i));
    }
    assert!(cur.next().unwrap().is_none());
    // New appends after the cursor exhausted its snapshot...
    for i in 10..25u64 {
        svc.append_path("/tail", &payload(i), AppendOpts::standard())
            .unwrap();
    }
    // ...become visible on the next call, without recreating the cursor.
    for i in 10..25u64 {
        assert_eq!(cur.next().unwrap().unwrap().data, payload(i));
    }
    assert!(cur.next().unwrap().is_none());
}
