//! End-to-end tests of the Clio log service.

use std::sync::Arc;

use clio_core::service::{AppendOpts, Durability, LogService};
use clio_core::write::MAX_BATCH_BLOCKS;
use clio_core::{LogCursor, ServiceConfig, Uio, UioSeek};
use clio_device::{FaultPlan, FaultyDevice, MemWormDevice, RamTailDevice, SharedDevice};
use clio_types::{ClioError, LogFileId, ManualClock, SeqNo, Timestamp, VolumeSeqId};
use clio_volume::{DevicePool, MemDevicePool, RecordingPool};

fn clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)))
}

fn small_service() -> LogService {
    LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(256, 4096)),
        ServiceConfig::small(),
        clock(),
    )
    .unwrap()
}

/// `ServiceConfig::validate` promises a typed error "instead of a panic deep
/// inside create/recover"; it used to check only `shards`, and each of
/// these panicked (`Geometry::new`, `BlockBuilder::new`,
/// `BlockCache::with_shards`).
#[test]
fn regression_a_bad_config_is_a_typed_error_not_a_panic() {
    let small = ServiceConfig::small;
    let bad = [
        ServiceConfig {
            fanout: 0,
            ..small()
        },
        ServiceConfig {
            fanout: 1025,
            ..small()
        },
        ServiceConfig {
            block_size: 64,
            ..small()
        },
        ServiceConfig {
            block_size: 1 << 17,
            ..small()
        },
        ServiceConfig {
            cache_blocks: 0,
            ..small()
        },
    ];
    for cfg in bad {
        let pool = Arc::new(MemDevicePool::new(cfg.block_size.max(128), 64));
        let r = LogService::create(VolumeSeqId(1), pool, cfg.clone(), clock());
        assert!(matches!(r, Err(ClioError::BadConfig(_))), "{cfg:?}");
    }
    // Recovery takes its geometry from the labels but its cache from the
    // configuration.
    let pool = capturing_pool(256, 64, false);
    drop(LogService::create(VolumeSeqId(1), pool.clone(), small(), clock()).unwrap());
    let cfg = ServiceConfig {
        cache_blocks: 0,
        ..small()
    };
    let r = LogService::recover(pool.devices(), pool.clone(), cfg, clock());
    assert!(matches!(r, Err(ClioError::BadConfig(_))));
}

#[test]
fn create_append_read_round_trip() {
    let svc = small_service();
    svc.create_log("/audit").unwrap();
    for i in 0..100u32 {
        svc.append_path(
            "/audit",
            format!("event-{i}").as_bytes(),
            AppendOpts::standard(),
        )
        .unwrap();
    }
    let mut cur = svc.cursor("/audit").unwrap();
    let all = cur.collect_remaining().unwrap();
    assert_eq!(all.len(), 100);
    for (i, e) in all.iter().enumerate() {
        assert_eq!(e.data, format!("event-{i}").into_bytes());
        assert!(e.timestamp.is_some());
    }
    // Timestamps are strictly increasing (service clock ticks per call).
    for w in all.windows(2) {
        assert!(w[0].effective_ts() < w[1].effective_ts());
    }
}

#[test]
fn reading_backwards_from_the_end() {
    let svc = small_service();
    svc.create_log("/log").unwrap();
    for i in 0..20u32 {
        svc.append_path("/log", &i.to_le_bytes(), AppendOpts::standard())
            .unwrap();
    }
    let mut cur = svc.cursor_from_end("/log").unwrap();
    let mut seen = Vec::new();
    while let Some(e) = cur.prev().unwrap() {
        seen.push(u32::from_le_bytes(e.data[..4].try_into().unwrap()));
    }
    assert_eq!(seen, (0..20u32).rev().collect::<Vec<_>>());
    // And forward again from the start anchor.
    assert!(cur.prev().unwrap().is_none());
    let first = cur.next().unwrap().unwrap();
    assert_eq!(u32::from_le_bytes(first.data[..4].try_into().unwrap()), 0);
}

#[test]
fn sublogs_belong_to_parents() {
    let svc = small_service();
    svc.create_log("/mail").unwrap();
    svc.create_log("/mail/smith").unwrap();
    svc.create_log("/mail/jones").unwrap();
    svc.append_path("/mail/smith", b"to smith", AppendOpts::standard())
        .unwrap();
    svc.append_path("/mail/jones", b"to jones", AppendOpts::standard())
        .unwrap();
    svc.append_path("/mail", b"to the list", AppendOpts::standard())
        .unwrap();

    // Reading /mail sees all three (§2.1).
    let mut cur = svc.cursor("/mail").unwrap();
    let all = cur.collect_remaining().unwrap();
    assert_eq!(all.len(), 3);
    // Reading a sublog sees only its own.
    let mut cur = svc.cursor("/mail/smith").unwrap();
    let smith = cur.collect_remaining().unwrap();
    assert_eq!(smith.len(), 1);
    assert_eq!(smith[0].data, b"to smith");
    // The volume sequence log sees client and service entries alike.
    let mut cur = svc.cursor("/").unwrap();
    let everything = cur.collect_remaining().unwrap();
    assert!(everything.len() >= 3 + 3, "got {}", everything.len()); // 3 creates logged too
}

#[test]
fn time_based_cursors() {
    let svc = small_service();
    svc.create_log("/t").unwrap();
    let mut stamps = Vec::new();
    for i in 0..50u32 {
        let r = svc
            .append_path("/t", &i.to_le_bytes(), AppendOpts::standard())
            .unwrap();
        stamps.push(r.timestamp);
    }
    // From the 25th entry's timestamp onwards.
    let mut cur = svc.cursor_from_time("/t", stamps[25]).unwrap();
    let got = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), 25);
    assert_eq!(u32::from_le_bytes(got[0].data[..4].try_into().unwrap()), 25);
    // prev() from that point gives entry 24.
    let mut cur = svc.cursor_from_time("/t", stamps[25]).unwrap();
    let before = cur.prev().unwrap().unwrap();
    assert_eq!(u32::from_le_bytes(before.data[..4].try_into().unwrap()), 24);
    // A time far in the future yields nothing forward, everything backward.
    let mut cur = svc
        .cursor_from_time("/t", Timestamp::from_secs(9999))
        .unwrap();
    assert!(cur.next().unwrap().is_none());
    assert!(cur.prev().unwrap().is_some());
    // A time before the epoch of the log starts at entry 0.
    let mut cur = svc.cursor_from_time("/t", Timestamp(0)).unwrap();
    let first = cur.next().unwrap().unwrap();
    assert_eq!(u32::from_le_bytes(first.data[..4].try_into().unwrap()), 0);
}

#[test]
fn receipts_locate_entries_directly() {
    let svc = small_service();
    svc.create_log("/k").unwrap();
    let mut receipts = Vec::new();
    for i in 0..30u32 {
        receipts.push(
            svc.append_path("/k", &i.to_le_bytes(), AppendOpts::forced())
                .unwrap(),
        );
    }
    for (i, r) in receipts.iter().enumerate() {
        let e = svc.read_entry(r.addr).unwrap();
        assert_eq!(
            u32::from_le_bytes(e.data[..4].try_into().unwrap()),
            i as u32
        );
        assert_eq!(e.timestamp, Some(r.timestamp));
    }
}

#[test]
fn large_entries_fragment_and_reassemble() {
    let svc = small_service(); // 256-byte blocks
    svc.create_log("/big").unwrap();
    let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    let r = svc
        .append_path("/big", &payload, AppendOpts::forced())
        .unwrap();
    let e = svc.read_entry(r.addr).unwrap();
    assert_eq!(e.data, payload);
    // And via cursor.
    let mut cur = svc.cursor("/big").unwrap();
    let got = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].data, payload);
    // Entries after the big one still work.
    svc.append_path("/big", b"small-after", AppendOpts::standard())
        .unwrap();
    let mut cur = svc.cursor("/big").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 2);
}

#[test]
fn mixed_sizes_interleaved_with_other_logs() {
    let svc = small_service();
    svc.create_log("/a").unwrap();
    svc.create_log("/b").unwrap();
    let mut expect_a = Vec::new();
    for i in 0..40usize {
        let data = vec![i as u8; (i * 37) % 600];
        if i % 3 == 0 {
            expect_a.push(data.clone());
            svc.append_path("/a", &data, AppendOpts::standard())
                .unwrap();
        } else {
            svc.append_path("/b", &data, AppendOpts::standard())
                .unwrap();
        }
    }
    let mut cur = svc.cursor("/a").unwrap();
    let got: Vec<Vec<u8>> = cur
        .collect_remaining()
        .unwrap()
        .into_iter()
        .map(|e| e.data)
        .collect();
    assert_eq!(got, expect_a);
}

#[test]
fn unique_id_lookup() {
    let svc = small_service();
    svc.create_log("/txn").unwrap();
    let mut wanted = None;
    for i in 0..30u32 {
        let r = svc
            .append_path("/txn", &i.to_le_bytes(), AppendOpts::with_seqno(SeqNo(i)))
            .unwrap();
        if i == 17 {
            wanted = Some(r.timestamp);
        }
    }
    let approx = Timestamp(wanted.unwrap().0 + 1_000); // a skewed client clock
    let hit = svc
        .find_by_unique_id("/txn", approx, SeqNo(17))
        .unwrap()
        .expect("entry 17 should be found");
    assert_eq!(u32::from_le_bytes(hit.data[..4].try_into().unwrap()), 17);
    assert!(svc
        .find_by_unique_id("/txn", approx, SeqNo(999))
        .unwrap()
        .is_none());
}

#[test]
fn catalog_errors() {
    let svc = small_service();
    assert!(matches!(
        svc.append_path("/nosuch", b"x", AppendOpts::standard()),
        Err(ClioError::NoSuchLogFile(_))
    ));
    svc.create_log("/x").unwrap();
    assert!(matches!(
        svc.create_log("/x"),
        Err(ClioError::LogFileExists(_))
    ));
    assert!(svc.create_log("/missing/child").is_err());
    assert!(svc.create_log("/.hidden").is_err());
    // Sealed log files refuse appends.
    let id = svc.resolve("/x").unwrap();
    svc.seal_log(id).unwrap();
    assert!(matches!(
        svc.append_path("/x", b"x", AppendOpts::standard()),
        Err(ClioError::ReadOnly)
    ));
    // Reserved ids refuse client appends.
    assert!(svc
        .append(LogFileId::CATALOG, b"x", AppendOpts::standard())
        .is_err());
}

#[test]
fn rename_and_list() {
    let svc = small_service();
    svc.create_log("/mail").unwrap();
    svc.create_log("/mail/smith").unwrap();
    svc.create_log("/mail/jones").unwrap();
    assert_eq!(svc.list("/mail").unwrap(), vec!["jones", "smith"]);
    let id = svc.resolve("/mail/smith").unwrap();
    svc.rename(id, "smythe").unwrap();
    assert_eq!(svc.list("/mail").unwrap(), vec!["jones", "smythe"]);
    assert_eq!(svc.path_of(id).unwrap(), "/mail/smythe");
}

// ---------------------------------------------------------------------
// Durability and recovery.
// ---------------------------------------------------------------------

/// The shared crash-simulation pool (see `clio_volume::RecordingPool`).
fn capturing_pool(block_size: usize, cap: u64, ram_tail: bool) -> Arc<RecordingPool> {
    let inner = Arc::new(MemDevicePool::new(block_size, cap));
    Arc::new(if ram_tail {
        RecordingPool::wrapping(inner, |base| {
            Arc::new(RamTailDevice::new(base)) as SharedDevice
        })
    } else {
        RecordingPool::new(inner)
    })
}

#[test]
fn forced_entries_survive_a_crash_pure_worm() {
    let pool = capturing_pool(256, 4096, false);
    let ck = clock();
    let svc = LogService::create(
        VolumeSeqId(9),
        pool.clone(),
        ServiceConfig::small(),
        ck.clone(),
    )
    .unwrap();
    svc.create_log("/wal").unwrap();
    for i in 0..25u32 {
        svc.append_path("/wal", &i.to_le_bytes(), AppendOpts::forced())
            .unwrap();
    }
    // Buffered entry that will be lost (never forced, never sealed).
    svc.append_path("/wal", b"volatile", AppendOpts::standard())
        .unwrap();
    drop(svc); // crash: all RAM state gone

    let (svc, report) =
        LogService::recover(pool.devices(), pool.clone(), ServiceConfig::small(), ck).unwrap();
    assert_eq!(report.volumes, 1);
    assert!(report.catalog_records >= 1);
    let mut cur = svc.cursor("/wal").unwrap();
    let got = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), 25, "forced entries survive, buffered one lost");
    for (i, e) in got.iter().enumerate() {
        assert_eq!(
            u32::from_le_bytes(e.data[..4].try_into().unwrap()),
            i as u32
        );
    }
    // The recovered service keeps appending where it left off.
    svc.append_path("/wal", b"after-recovery", AppendOpts::forced())
        .unwrap();
    let mut cur = svc.cursor("/wal").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 26);
}

#[test]
fn ram_tail_staging_avoids_fragmentation_and_survives() {
    let pool = capturing_pool(256, 4096, true);
    let ck = clock();
    let svc = LogService::create(
        VolumeSeqId(9),
        pool.clone(),
        ServiceConfig::small(),
        ck.clone(),
    )
    .unwrap();
    svc.create_log("/wal").unwrap();
    for i in 0..25u32 {
        svc.append_path("/wal", &i.to_le_bytes(), AppendOpts::forced())
            .unwrap();
    }
    // Forced writes staged in NV RAM: far fewer sealed blocks than forced
    // writes (on pure WORM every force seals a block).
    let sealed = svc.report().blocks_sealed;
    assert!(sealed < 25, "sealed {sealed} blocks for 25 forced writes");
    drop(svc);

    let (svc, _) =
        LogService::recover(pool.devices(), pool.clone(), ServiceConfig::small(), ck).unwrap();
    let mut cur = svc.cursor("/wal").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 25);
}

#[test]
fn recovery_reconstructs_entrymap_equivalently() {
    // Write a log whose entries are sparse, crash, recover, and verify the
    // recovered service can still find distant entries via its rebuilt
    // entrymap state.
    let pool = capturing_pool(256, 4096, false);
    let ck = clock();
    let svc = LogService::create(
        VolumeSeqId(3),
        pool.clone(),
        ServiceConfig::small(),
        ck.clone(),
    )
    .unwrap();
    svc.create_log("/sparse").unwrap();
    svc.create_log("/noise").unwrap();
    svc.append_path("/sparse", b"first", AppendOpts::forced())
        .unwrap();
    for _ in 0..400 {
        svc.append_path("/noise", &[0u8; 40], AppendOpts::standard())
            .unwrap();
    }
    svc.append_path("/sparse", b"second", AppendOpts::forced())
        .unwrap();
    svc.flush().unwrap();
    drop(svc);

    let (svc, report) =
        LogService::recover(pool.devices(), pool.clone(), ServiceConfig::small(), ck).unwrap();
    assert!(report.rebuild_blocks_read > 0);
    let mut cur = svc.cursor("/sparse").unwrap();
    let got = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].data, b"first");
    assert_eq!(got[1].data, b"second");
}

#[test]
fn multi_volume_spanning() {
    // Tiny volumes force several successor loads (§2.1).
    let pool = capturing_pool(256, 24, false);
    let ck = clock();
    let svc = LogService::create(
        VolumeSeqId(5),
        pool.clone(),
        ServiceConfig::small(),
        ck.clone(),
    )
    .unwrap();
    svc.create_log("/span").unwrap();
    for i in 0..120u32 {
        let mut payload = format!("e{i}:").into_bytes();
        payload.resize(100, b'.');
        svc.append_path("/span", &payload, AppendOpts::standard())
            .unwrap();
    }
    svc.flush().unwrap();
    assert!(
        svc.volumes().volume_count() >= 3,
        "expected several volumes, got {}",
        svc.volumes().volume_count()
    );
    let mut cur = svc.cursor("/span").unwrap();
    let all = cur.collect_remaining().unwrap();
    assert_eq!(all.len(), 120);
    for (i, e) in all.iter().enumerate() {
        assert!(e.data.starts_with(format!("e{i}:").as_bytes()));
    }
    // Backward reading crosses volumes too.
    let mut cur = svc.cursor_from_end("/span").unwrap();
    let last = cur.prev().unwrap().unwrap();
    assert!(last.data.starts_with(b"e119:"));

    // Crash and recover the whole chain.
    drop(svc);
    let (svc, report) =
        LogService::recover(pool.devices(), pool.clone(), ServiceConfig::small(), ck).unwrap();
    assert!(report.volumes >= 3);
    let mut cur = svc.cursor("/span").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 120);
    // The catalog came from the newest volume's checkpoint.
    assert!(svc.resolve("/span").is_ok());
}

/// A pool of in-memory write-once devices behind fault injectors; tests
/// arm faults on the most recently handed-out device.
#[derive(Default)]
struct FaultyPool(clio_testkit::sync::Mutex<Option<Arc<FaultyDevice>>>);

impl FaultyPool {
    fn device(&self) -> Arc<FaultyDevice> {
        self.0.lock().clone().expect("a device was handed out")
    }
}

impl DevicePool for FaultyPool {
    fn next_device(&self) -> clio_types::Result<SharedDevice> {
        let base: SharedDevice = Arc::new(MemWormDevice::new(256, 4096));
        let faulty = Arc::new(FaultyDevice::new(base, FaultPlan::default()));
        *self.0.lock() = Some(faulty.clone());
        Ok(faulty)
    }
}

#[test]
fn corruption_is_invalidated_and_other_data_survives() {
    // A fault injector corrupts one append; with verification on, the
    // service invalidates the block, re-places it, and logs a bad block.
    let pool = Arc::new(FaultyPool::default());
    let cfg = ServiceConfig::small().with_verified_appends();
    let svc = LogService::create(VolumeSeqId(6), pool.clone(), cfg.clone(), clock()).unwrap();
    svc.create_log("/d").unwrap();
    svc.append_path("/d", b"before", AppendOpts::forced())
        .unwrap();

    // Corrupt exactly the next device append.
    pool.device().corrupt_next_append();
    let r = svc
        .append_path("/d", b"critical", AppendOpts::forced())
        .unwrap();
    // The forced entry is still readable (it was re-placed).
    let e = svc.read_entry(r.addr).unwrap();
    assert_eq!(e.data, b"critical");
    svc.append_path("/d", b"after", AppendOpts::forced())
        .unwrap();

    let mut cur = svc.cursor("/d").unwrap();
    let all: Vec<Vec<u8>> = cur
        .collect_remaining()
        .unwrap()
        .into_iter()
        .map(|e| e.data)
        .collect();
    assert_eq!(
        all,
        vec![b"before".to_vec(), b"critical".to_vec(), b"after".to_vec()]
    );

    // The bad block was recorded in the bad-block log (§2.3.2).
    svc.flush().unwrap();
    let mut cur = svc.cursor("/").unwrap();
    let bad_entries: Vec<_> = cur
        .collect_remaining()
        .unwrap()
        .into_iter()
        .filter(|e| e.id == LogFileId::BAD_BLOCK)
        .collect();
    assert_eq!(bad_entries.len(), 1);
}

/// Entries of `/d` in log order, and how many bad-block records the
/// service has logged.
fn d_entries_and_bad_blocks(svc: &LogService) -> (Vec<Vec<u8>>, usize) {
    svc.flush().unwrap();
    let d = svc.resolve("/d").unwrap();
    let all = svc.cursor("/").unwrap().collect_remaining().unwrap();
    let bad = all.iter().filter(|e| e.id == LogFileId::BAD_BLOCK).count();
    let data = all.into_iter().filter(|e| e.id == d).map(|e| e.data);
    (data.collect(), bad)
}

/// Verified appends go through the commit gate like every other forced
/// append: two forced appenders and a buffered entry share the block whose
/// write is corrupted, and every one of them reads back by its receipt.
#[test]
fn corruption_under_the_commit_gate_is_replaced_for_every_sharer() {
    let pool = Arc::new(FaultyPool::default());
    // The two appenders leave a barrier together, so the second usually
    // joins the leader's batch; the assertions hold for either interleaving.
    let cfg = ServiceConfig::small().with_verified_appends();
    let svc = LogService::create(VolumeSeqId(6), pool.clone(), cfg, clock()).unwrap();
    svc.create_log("/d").unwrap();
    svc.append_path("/d", b"before", AppendOpts::forced())
        .unwrap();
    let rider = svc
        .append_path("/d", b"rider", AppendOpts::standard())
        .unwrap();

    pool.device().corrupt_next_append();
    let barrier = std::sync::Barrier::new(2);
    let receipts: Vec<_> = std::thread::scope(|s| {
        let appenders: Vec<_> = [b"critical-a", b"critical-b"]
            .into_iter()
            .map(|data| {
                let (svc, barrier) = (&svc, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    (
                        data,
                        svc.append_path("/d", data, AppendOpts::forced()).unwrap(),
                    )
                })
            })
            .collect();
        appenders.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(pool.device().corrupted_blocks().len(), 1);
    for (data, r) in &receipts {
        assert_eq!(svc.read_entry(r.addr).unwrap().data, *data);
    }
    assert_eq!(svc.read_entry(rider.addr).unwrap().data, b"rider");
    svc.append_path("/d", b"after", AppendOpts::forced())
        .unwrap();

    let (mut all, bad) = d_entries_and_bad_blocks(&svc);
    assert_eq!(bad, 1);
    assert_eq!(all.len(), 5);
    assert_eq!(all[..2], [b"before".to_vec(), b"rider".to_vec()]);
    assert_eq!(all[4], b"after");
    all[2..4].sort();
    assert_eq!(all[2..4], [b"critical-a".to_vec(), b"critical-b".to_vec()]);
}

/// The writer re-places a corrupt block up to `MAX_SEAL_ATTEMPTS - 1`
/// times, so the reader must look that far past an invalidated address —
/// it used to stop after 3 blocks and report a receipt displaced by more
/// as `NotFound`, and a fragment chain gave up after 5 unreadable blocks.
#[test]
fn regression_receipt_survives_repeated_replacement() {
    const CORRUPTED: u32 = 5;
    let pool = Arc::new(FaultyPool::default());
    let cfg = ServiceConfig::small().with_verified_appends();
    let svc = LogService::create(VolumeSeqId(6), pool.clone(), cfg, clock()).unwrap();
    svc.create_log("/d").unwrap();
    svc.append_path("/d", b"before", AppendOpts::forced())
        .unwrap();
    // Longer than a block: the first fragment fills (and seals) one block,
    // the continuation shares the next with the two entries below — the
    // block whose write then fails five times running.
    let long = vec![b'L'; 300];
    let chained = svc
        .append_path("/d", &long, AppendOpts::standard())
        .unwrap();
    let buffered = svc
        .append_path("/d", b"buffered", AppendOpts::standard())
        .unwrap();
    pool.device().corrupt_next_appends(CORRUPTED);
    let forced = svc
        .append_path("/d", b"forced", AppendOpts::forced())
        .unwrap();
    assert_eq!(
        buffered.addr.block, forced.addr.block,
        "both receipts must name the block that gets displaced"
    );
    assert_eq!(pool.device().corrupted_blocks().len(), CORRUPTED as usize);

    assert_eq!(svc.read_entry(buffered.addr).unwrap().data, b"buffered");
    let e = svc.read_entry(forced.addr).unwrap();
    assert_eq!(e.data, b"forced");
    assert_eq!(
        e.addr.block.0,
        forced.addr.block.0 + u64::from(CORRUPTED),
        "the entry reports where it finally landed"
    );
    assert_eq!(svc.read_entry(chained.addr).unwrap().data, long);

    let (all, bad) = d_entries_and_bad_blocks(&svc);
    assert_eq!(bad, CORRUPTED as usize);
    assert_eq!(
        all,
        [&b"before"[..], &long[..], &b"buffered"[..], &b"forced"[..]]
    );
}

/// A seal that gives up (the block read back corrupt on every attempt)
/// leaves the writer at the device end, not on the last garbage block: it
/// used to reopen the block at an address already burned, and every later
/// seal of it failed `NotAppendOnly`.
#[test]
fn regression_seal_that_gives_up_retries_at_the_device_end() {
    let pool = Arc::new(FaultyPool::default());
    let cfg = ServiceConfig::small().with_verified_appends();
    let svc = LogService::create(VolumeSeqId(6), pool.clone(), cfg, clock()).unwrap();
    svc.create_log("/d").unwrap();
    svc.append_path("/d", b"before", AppendOpts::forced())
        .unwrap();
    svc.append_path("/d", b"buffered", AppendOpts::standard())
        .unwrap();

    pool.device().corrupt_next_appends(8);
    let gave_up = svc.append_path("/d", b"unlucky", AppendOpts::forced());
    assert!(
        matches!(gave_up, Err(ClioError::Internal(_))),
        "{gave_up:?}"
    );
    assert_eq!(pool.device().corrupted_blocks().len(), 8);

    // The medium behaves again: the same block seals on the next try, and
    // nothing staged in it was lost.
    let after = svc
        .append_path("/d", b"after", AppendOpts::forced())
        .unwrap();
    assert_eq!(svc.read_entry(after.addr).unwrap().data, b"after");
    let (all, bad) = d_entries_and_bad_blocks(&svc);
    assert_eq!(bad, 8);
    assert_eq!(
        all,
        [&b"before"[..], b"buffered", b"unlucky", b"after"],
        "the failed append was staged, so it rides the retry"
    );
}

/// A cursor standing inside the open block when verification re-places
/// that block resumes at the same slot of the re-placement — it used to
/// hop to the re-placed block's first entry and replay it (found by the
/// verifying simulation storm, seed 10).
#[test]
fn regression_cursor_resumes_inside_a_replaced_block() {
    let pool = Arc::new(FaultyPool::default());
    let cfg = ServiceConfig::small().with_verified_appends();
    let svc = LogService::create(VolumeSeqId(6), pool.clone(), cfg, clock()).unwrap();
    svc.create_log("/d").unwrap();
    svc.append_path("/d", b"sealed", AppendOpts::forced())
        .unwrap();
    for data in [&b"one"[..], b"two"] {
        svc.append_path("/d", data, AppendOpts::standard()).unwrap();
    }
    // Two cursors, both left standing on "two" in the open block.
    let mut cur = svc.cursor("/d").unwrap();
    let mut back = svc.cursor("/d").unwrap();
    for c in [&mut cur, &mut back] {
        let seen: Vec<_> = (0..3).map(|_| c.next().unwrap().unwrap().data).collect();
        assert_eq!(seen, [&b"sealed"[..], b"one", b"two"]);
    }
    assert!(cur.next().unwrap().is_none());

    pool.device().corrupt_next_appends(2);
    svc.append_path("/d", b"three", AppendOpts::forced())
        .unwrap();
    assert_eq!(cur.next().unwrap().unwrap().data, b"three");
    assert!(cur.next().unwrap().is_none());
    // Backwards, `prev` yields the entries before the one stood on.
    assert_eq!(back.prev().unwrap().unwrap().data, b"one");
    assert_eq!(back.prev().unwrap().unwrap().data, b"sealed");
}

#[test]
fn flush_is_idempotent_and_cheap_when_nothing_pending() {
    let svc = small_service();
    svc.create_log("/f").unwrap();
    svc.flush().unwrap();
    svc.flush().unwrap();
    svc.append_path("/f", b"x", AppendOpts::standard()).unwrap();
    svc.flush().unwrap();
    let sealed_before = svc.report().blocks_sealed;
    svc.flush().unwrap();
    svc.flush().unwrap();
    // Pure WORM flush seals; repeated flushes with no new data must not
    // keep sealing blocks.
    assert_eq!(svc.report().blocks_sealed, sealed_before);
}

#[test]
fn space_report_tracks_overheads() {
    let svc = small_service();
    svc.create_log("/s").unwrap();
    for _ in 0..200 {
        svc.append_path("/s", &[7u8; 36], AppendOpts::minimal())
            .unwrap();
    }
    svc.flush().unwrap();
    let r = svc.report();
    assert_eq!(r.entries, 200);
    assert_eq!(r.client_bytes, 200 * 36);
    // §2.2: minimal header overhead is 4 bytes/entry — under 10% at 36 B.
    // (Entries that straddle a block boundary fragment and pay a little
    // more, so the average sits just above 4.)
    assert!(
        r.avg_header_overhead >= 4.0 && r.avg_header_overhead < 7.0,
        "avg header overhead = {}",
        r.avg_header_overhead
    );
    assert!(r.header_overhead_pct() < 16.0);
    // Entrymap overhead per entry is far below the header cost (§3.5).
    assert!(r.avg_entrymap_overhead < r.avg_header_overhead);
}

// ---------------------------------------------------------------------
// UIO and the server boundary.
// ---------------------------------------------------------------------

#[test]
fn uio_round_trip_and_time_seek() {
    let svc = small_service();
    svc.create_log("/u").unwrap();
    let mut f = clio_core::uio::LogUio::open(&svc, "/u").unwrap();
    f.uio_write(b"hello ").unwrap();
    f.uio_write(b"world").unwrap();
    let mut buf = [0u8; 64];
    let n = f.uio_read(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"hello world");
    assert_eq!(f.uio_read(&mut buf).unwrap(), 0);
    // Seek back to the start and read in tiny chunks.
    f.uio_seek(UioSeek::Start).unwrap();
    let mut tiny = [0u8; 4];
    assert_eq!(f.uio_read(&mut tiny).unwrap(), 4);
    assert_eq!(&tiny, b"hell");
    // Byte offsets are not meaningful for log files.
    assert!(f.uio_seek(UioSeek::Offset(3)).is_err());
}

#[test]
fn server_boundary_round_trip() {
    use clio_core::server::{LogServer, Request};
    let svc = small_service();
    let server = LogServer::spawn(svc);
    let client = server.client();

    match client.call(Request::CreateLog {
        path: "/remote".into(),
    }) {
        clio_core::server::Response::Created(_) => {}
        other => panic!("create failed: {other:?}"),
    }
    for i in 0..10u32 {
        client
            .append_sync("/remote", format!("m{i}").as_bytes())
            .unwrap();
    }
    let entries = client
        .call(Request::ReadFrom {
            path: "/remote".into(),
            from: Timestamp::ZERO,
            max: 100,
        })
        .entries()
        .unwrap();
    assert_eq!(entries.len(), 10);
    let last = client
        .call(Request::ReadLast {
            path: "/remote".into(),
            max: 3,
        })
        .entries()
        .unwrap();
    assert_eq!(last.len(), 3);
    assert_eq!(last[0].data, b"m9");
    assert!(server.ipc_round_trips() >= 12);
    server.shutdown();
}

#[test]
fn server_append_batch_is_one_round_trip() {
    use clio_core::server::{LogServer, Request, Response};
    let server = LogServer::spawn(small_service());
    let client = server.client();
    for path in ["/a", "/b"] {
        match client.call(Request::CreateLog { path: path.into() }) {
            Response::Created(_) => {}
            other => panic!("create failed: {other:?}"),
        }
    }
    let before = server.ipc_round_trips();
    let items: Vec<(String, Vec<u8>)> = (0..6u32)
        .map(|i| {
            let path = if i % 2 == 0 { "/a" } else { "/b" };
            (path.to_owned(), format!("batch{i}").into_bytes())
        })
        .collect();
    let receipts = client.append_batch(items.clone(), true).unwrap();
    assert_eq!(receipts.len(), 6);
    assert_eq!(
        server.ipc_round_trips(),
        before + 1,
        "a whole batch costs exactly one IPC round trip"
    );
    // Every receipt resolves to its payload, in order.
    let entries = client
        .call(Request::ReadFrom {
            path: "/a".into(),
            from: Timestamp::ZERO,
            max: 10,
        })
        .entries()
        .unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(entries[0].data, b"batch0");
    assert_eq!(entries[2].data, b"batch4");
    // An unknown path fails the whole call without a panic.
    let bad = client.append_batch(vec![("/nope".into(), b"x".to_vec())], false);
    assert!(bad.is_err());
    server.shutdown();
}

#[test]
fn buffered_vs_forced_durability() {
    let svc = small_service();
    svc.create_log("/x").unwrap();
    let r1 = svc
        .append_path("/x", b"buffered", AppendOpts::standard())
        .unwrap();
    let r2 = svc
        .append_path("/x", b"forced", AppendOpts::forced())
        .unwrap();
    // Both readable through the service (read-your-writes).
    assert_eq!(svc.read_entry(r1.addr).unwrap().data, b"buffered");
    assert_eq!(svc.read_entry(r2.addr).unwrap().data, b"forced");
    assert!(matches!(
        AppendOpts::default().durability,
        Durability::Buffered
    ));
}

#[test]
fn time_cursor_crosses_volumes() {
    let pool = capturing_pool(256, 32, false);
    let svc = LogService::create(VolumeSeqId(11), pool, ServiceConfig::small(), clock()).unwrap();
    svc.create_log("/t").unwrap();
    let mut stamps = Vec::new();
    for i in 0..120u32 {
        let mut payload = format!("e{i}:").into_bytes();
        payload.resize(90, b't');
        let r = svc
            .append_path("/t", &payload, AppendOpts::standard())
            .unwrap();
        stamps.push(r.timestamp);
    }
    svc.flush().unwrap();
    assert!(svc.volumes().volume_count() >= 2, "needs several volumes");
    // Seek to a timestamp that lives in a non-first volume.
    let mut cur = svc.cursor_from_time("/t", stamps[100]).unwrap();
    let got = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), 20);
    assert!(got[0].data.starts_with(b"e100:"));
    // And to one in the first volume, reading across the boundary.
    let mut cur = svc.cursor_from_time("/t", stamps[10]).unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 110);
}

#[test]
fn read_permission_is_enforced() {
    use clio_format::records::PERM_APPEND;
    let svc = small_service();
    svc.create_log("/secret").unwrap();
    svc.append_path("/secret", b"classified", AppendOpts::standard())
        .unwrap();
    let id = svc.resolve("/secret").unwrap();
    // Drop the read bit; cursors are refused, appends still work.
    svc.set_perms(id, PERM_APPEND).unwrap();
    assert!(matches!(
        svc.cursor("/secret"),
        Err(ClioError::PermissionDenied(_))
    ));
    assert!(matches!(
        svc.cursor_from_time("/secret", Timestamp::ZERO),
        Err(ClioError::PermissionDenied(_))
    ));
    svc.append_path("/secret", b"more", AppendOpts::standard())
        .unwrap();
    // Drop the append bit instead.
    use clio_format::records::PERM_READ;
    svc.set_perms(id, PERM_READ).unwrap();
    assert!(matches!(
        svc.append_path("/secret", b"x", AppendOpts::standard()),
        Err(ClioError::PermissionDenied(_))
    ));
    let mut cur = svc.cursor("/secret").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 2);
}

#[test]
fn long_volume_chains_recover() {
    // The paper expects sequences "several hundred volumes long" (§3);
    // exercise a few dozen tiny volumes and a full recovery over them.
    let pool = capturing_pool(256, 8, false); // 7 data blocks per volume
    let ck = clock();
    let cfg = ServiceConfig::small();
    let total = 300u32;
    {
        let svc =
            LogService::create(VolumeSeqId(12), pool.clone(), cfg.clone(), ck.clone()).unwrap();
        svc.create_log("/chain").unwrap();
        for i in 0..total {
            let mut payload = format!("c{i}:").into_bytes();
            payload.resize(100, b'c');
            svc.append_path("/chain", &payload, AppendOpts::standard())
                .unwrap();
        }
        svc.flush().unwrap();
        assert!(
            svc.volumes().volume_count() >= 20,
            "only {} volumes",
            svc.volumes().volume_count()
        );
    }
    let (svc, report) = LogService::recover(pool.devices(), pool.clone(), cfg, ck).unwrap();
    assert!(report.volumes >= 20);
    let mut cur = svc.cursor("/chain").unwrap();
    let got = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), total as usize);
    for (i, e) in got.iter().enumerate() {
        assert!(e.data.starts_with(format!("c{i}:").as_bytes()));
    }
    // Backward over the whole chain too.
    let mut cur = svc.cursor_from_end("/chain").unwrap();
    let mut n = 0;
    while cur.prev().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, total as usize);
}

/// A volume switch buffers the successor's catalog checkpoint: until the
/// new volume's first commit, the newest volume is a label and nothing
/// else. Recovery reads the catalog newest volume first, so it has to fall
/// back to the predecessor there — and keep replaying across both volumes
/// for as long as the newest has records but no checkpoint of its own.
#[test]
fn recovery_falls_back_a_volume_when_the_newest_checkpoint_is_torn() {
    let pool = capturing_pool(256, 24, false);
    let ck = clock();
    let cfg = ServiceConfig::small();
    let svc = LogService::create(VolumeSeqId(13), pool.clone(), cfg.clone(), ck.clone()).unwrap();
    svc.create_log("/first").unwrap();
    while svc.volumes().volume_count() == 1 {
        svc.append_path("/first", &[7u8; 100], AppendOpts::standard())
            .unwrap();
    }
    // The checkpoint sits in the open block, not on the medium.
    assert_eq!(svc.volumes().active().data_end(), 0);
    drop(svc);

    let (svc, report) =
        LogService::recover(pool.devices(), pool.clone(), cfg.clone(), ck.clone()).unwrap();
    assert_eq!(report.volumes, 2);
    assert_eq!(report.catalog_records, 1, "volume 0's one Create");
    svc.resolve("/first").unwrap();
    // The recovered service carries on in the checkpoint-less volume.
    svc.create_log("/second").unwrap();
    drop(svc);

    let (svc, report) = LogService::recover(pool.devices(), pool.clone(), cfg, ck).unwrap();
    assert_eq!(report.catalog_records, 2, "one Create from each volume");
    let first = svc.resolve("/first").unwrap();
    assert!(svc.resolve("/second").unwrap() > first);
}

/// A batch is routed before it is staged — at one shard like at four — so
/// an unknown path anywhere in it fails the batch with nothing appended.
#[test]
fn append_batch_with_an_unknown_path_stages_nothing() {
    for shards in [1, 4] {
        let svc = LogService::create(
            VolumeSeqId(14),
            Arc::new(MemDevicePool::new(256, 4096)),
            ServiceConfig::small().with_shards(shards),
            clock(),
        )
        .unwrap();
        svc.create_log("/a").unwrap();
        svc.create_log("/b").unwrap();
        let item = |path: &str, data: &[u8]| (path.to_owned(), data.to_vec());
        let mut items = vec![
            item("/a", b"one"),
            item("/b", b"two"),
            item("/missing", b"three"),
            item("/a", b"four"),
        ];
        let err = svc
            .append_batch(&items, AppendOpts::standard())
            .unwrap_err();
        assert!(
            matches!(err, ClioError::NoSuchLogFile(_)),
            "{shards}: {err}"
        );
        let count = |path: &str| {
            let mut cur = svc.cursor(path).unwrap();
            cur.collect_remaining().unwrap().len()
        };
        assert_eq!((count("/a"), count("/b")), (0, 0), "{shards} shard(s)");
        // Without the unknown path the same batch lands whole.
        items.remove(2);
        let receipts = svc.append_batch(&items, AppendOpts::standard()).unwrap();
        assert_eq!(receipts.len(), 3);
        assert_eq!((count("/a"), count("/b")), (2, 1), "{shards} shard(s)");
    }
}

#[test]
fn server_admin_requests() {
    use clio_core::server::{LogServer, Request, Response};
    use clio_format::records::PERM_READ;
    let server = LogServer::spawn(small_service());
    let client = server.client();
    client.call(Request::CreateLog {
        path: "/adm".into(),
    });
    client.append_sync("/adm", b"one").unwrap();

    // Stat reflects catalog attributes.
    match client.call(Request::Stat {
        path: "/adm".into(),
    }) {
        Response::Attrs(a) => {
            assert_eq!(a.name, "adm");
            assert!(!a.sealed);
        }
        other => panic!("stat failed: {other:?}"),
    }
    // SetPerms to read-only, then appends fail through the boundary.
    match client.call(Request::SetPerms {
        path: "/adm".into(),
        perms: PERM_READ,
    }) {
        Response::Done => {}
        other => panic!("setperms failed: {other:?}"),
    }
    assert!(client.append_sync("/adm", b"two").is_err());
    // Seal is visible via Stat.
    client.call(Request::SetPerms {
        path: "/adm".into(),
        perms: 3,
    });
    match client.call(Request::Seal {
        path: "/adm".into(),
    }) {
        Response::Done => {}
        other => panic!("seal failed: {other:?}"),
    }
    match client.call(Request::Stat {
        path: "/adm".into(),
    }) {
        Response::Attrs(a) => assert!(a.sealed),
        other => panic!("stat failed: {other:?}"),
    }
    assert!(client.append_sync("/adm", b"three").is_err());
    server.shutdown();
}

/// Opening a level-boundary block moves the completed group's notes out of
/// the pending maps (they become map records at the start of the open
/// block) and propagates them one level up. The reader's frozen pending
/// snapshot must advance at the same moment: the whole-system simulator
/// (seed 9) caught a window where a view paired a post-open data end with
/// a pre-open pending clone, so the parent level hid the just-completed
/// sub-group and every entry in it was unlocatable until the next seal.
/// Sweeping a sparse log against a busy one checks every open/seal
/// alignment: the sparse log's entries must stay reachable after each
/// single append.
#[test]
fn regression_entries_locatable_while_boundary_block_open() {
    let svc = small_service();
    svc.create_log("/busy").unwrap();
    svc.create_log("/sparse").unwrap();
    // ~150-byte payloads pack one entry per 256-byte block, so appends map
    // to blocks and the 9-vs-4 stride walks all boundary alignments.
    let fat = vec![0x5A_u8; 150];
    let mut sparse_written = 0usize;
    for i in 0..80usize {
        if i % 9 == 3 {
            svc.append_path("/sparse", &fat, AppendOpts::standard())
                .unwrap();
            sparse_written += 1;
        } else {
            svc.append_path("/busy", &fat, AppendOpts::standard())
                .unwrap();
        }
        let mut cur = svc.cursor("/sparse").unwrap();
        let got = cur.collect_remaining().unwrap().len();
        assert_eq!(got, sparse_written, "after append {i}: entry unlocatable");
    }
}

/// The log files of the fragment chains, on the service's active volume,
/// that cross a block of nothing but entrymap records: a block whose last
/// record is a first fragment, followed by a maps-only block.
fn chains_across_maps_only_blocks(svc: &LogService) -> Vec<LogFileId> {
    use clio_format::{BlockView, FragKind};

    let vol = svc.volumes().active();
    let records = |db: u64| -> Vec<(LogFileId, FragKind)> {
        let img = vol.read_data_block(db).unwrap();
        let blk = BlockView::parse(&img).unwrap();
        blk.entries()
            .map(|e| e.unwrap().header)
            .map(|h| (h.id, h.frag))
            .collect()
    };
    (1..vol.data_end())
        .filter(|&db| records(db).iter().all(|(id, _)| *id == LogFileId::ENTRYMAP))
        .filter_map(|db| match records(db - 1).last() {
            Some((id, FragKind::First { .. })) => Some(*id),
            _ => None,
        })
        .collect()
}

/// PR 12's benchmark found `read_entry` answering `NotFound("fragment
/// chain of entry … broken at block 4096")` at 576 logs: the entrymap
/// records due at a boundary overflowed one block, so the writer sealed a
/// block of nothing but map records and a fragmented entry's continuation
/// landed one block further on — which the reader took for a torn chain.
/// Here 120 logs overflow a 256-byte block at every 4-block boundary.
#[test]
fn regression_fragment_chain_skips_entrymap_overflow_block() {
    let svc = small_service();
    let names: Vec<String> = (0..120).map(|i| format!("/l{i}")).collect();
    for n in &names {
        svc.create_log(n).unwrap();
    }
    svc.create_log("/big").unwrap();
    let mut big = Vec::new();
    for round in 0..40u8 {
        let payload = vec![round; 300];
        let r = svc
            .append_path("/big", &payload, AppendOpts::standard())
            .unwrap();
        big.push((r.addr, payload));
        for n in &names {
            svc.append_path(n, &[round], AppendOpts::minimal()).unwrap();
        }
    }
    svc.flush().unwrap();

    // The layout under test really occurred: a first fragment closing one
    // block, then a block holding only entrymap records.
    assert!(
        !chains_across_maps_only_blocks(&svc).is_empty(),
        "no chain crossed a maps-only block"
    );

    for (addr, payload) in &big {
        let e = svc.read_entry(*addr).unwrap();
        assert_eq!(&e.data, payload, "entry {addr}");
    }
    let mut cur = svc.cursor("/big").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), big.len());
}

/// The same layout under the catalog log: recovery used to read it with a
/// private copy of the reader that predated the maps-only rule, took a
/// `Create` record whose continuation sat past an entrymap-overflow block
/// for torn, and came back without the log file — and with a `next_id`
/// that handed the lost file's id out again. 120 logs overflow a 256-byte
/// block at every 4-block boundary; a 120-character name fragments every
/// `Create`.
#[test]
fn regression_catalog_record_across_entrymap_overflow_block_survives_recovery() {
    let pool = capturing_pool(256, 1 << 15, false);
    let ck = clock();
    let svc = LogService::create(
        VolumeSeqId(11),
        pool.clone(),
        ServiceConfig::small(),
        ck.clone(),
    )
    .unwrap();
    let names: Vec<String> = (0..120).map(|i| format!("/l{i}")).collect();
    for n in &names {
        svc.create_log(n).unwrap();
    }
    let mut created = Vec::new();
    for round in 0..200u32 {
        for n in &names {
            svc.append_path(n, &[round as u8], AppendOpts::minimal())
                .unwrap();
        }
        let path = format!("/{round:0>120}");
        let id = svc.create_log(&path).unwrap();
        created.push((path, svc.attrs(id).unwrap()));
    }

    // The layout under test really occurred: a catalog record's first
    // fragment closing one block, then a block of nothing but map records.
    assert!(
        chains_across_maps_only_blocks(&svc).contains(&LogFileId::CATALOG),
        "no catalog record crossed a maps-only block"
    );
    drop(svc); // crash: every create_log above was acknowledged

    let (svc, _) =
        LogService::recover(pool.devices(), pool.clone(), ServiceConfig::small(), ck).unwrap();
    for (path, attrs) in &created {
        let id = svc
            .resolve(path)
            .unwrap_or_else(|e| panic!("acknowledged log file lost at recovery: {e}"));
        assert_eq!(&svc.attrs(id).unwrap(), attrs);
    }
    let highest = created.iter().map(|(_, a)| a.id).max().unwrap();
    let fresh = svc.create_log("/fresh").unwrap();
    assert!(
        fresh > highest,
        "{fresh} re-issues an id at or below {highest}"
    );
}

/// A buffered append costs the same at any queue depth: it publishes no
/// snapshot while it stays inside the open block, and the sealed queue is
/// drained every `MAX_BATCH_BLOCKS` seals instead of growing until the
/// next flush. Counts only — no wall clock.
#[test]
fn publish_is_flat_in_queue_depth() {
    let cfg = ServiceConfig {
        block_size: 1024,
        ..ServiceConfig::small()
    };
    let batch = MAX_BATCH_BLOCKS as u64;
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(1024, 1 << 14)),
        cfg,
        clock(),
    )
    .unwrap();
    let id = svc.create_log("/audit").unwrap();
    let publishes = svc.metrics().counter("clio_core_view_publishes_total");
    let queue_depth = svc.metrics().gauge("clio_core_shard0_sealed_queue_blocks");
    let publishes_before = publishes.get();
    let sealed_before = svc.report().blocks_sealed;
    let dev = svc.obs().device_stats.clone();
    let (batches_before, batch_blocks_before, appends_before) = (
        dev.batch_appends.get(),
        dev.append_batch_blocks.sum(),
        dev.appends.get(),
    );

    for i in 0..20_000u32 {
        let mut payload = i.to_le_bytes().to_vec();
        payload.resize(64, b'a');
        let r = svc.append(id, &payload, AppendOpts::standard()).unwrap();
        // Readable no later than the receipt, with nothing flushed.
        assert_eq!(svc.read_entry(r.addr).unwrap().data, payload);
        assert!(queue_depth.get() < batch as i64, "queue over a full batch");
    }

    let sealed = svc.report().blocks_sealed - sealed_before;
    assert!(sealed > 20 * batch, "the run must span many drains");
    let published = publishes.get() - publishes_before;
    assert!(
        published <= sealed + 2,
        "{published} publishes for {sealed} sealed blocks"
    );
    // Everything that reached the device went as full-batch vectored
    // writes; the rest is still queued or open.
    let writes = dev.batch_appends.get() - batches_before;
    assert_eq!(writes, sealed / batch);
    assert_eq!(
        dev.append_batch_blocks.sum() - batch_blocks_before,
        writes * batch
    );
    assert_eq!(dev.appends.get() - appends_before, writes * batch);
    assert_eq!(queue_depth.get() as u64, sealed % batch);
}

/// A device error during the full-batch drain: the append that triggered
/// it reports the error, the unwritten suffix stays queued (and readable),
/// and a later flush lands every block exactly once.
#[test]
fn failed_threshold_drain_keeps_the_suffix_queued() {
    let pool = Arc::new(FaultyPool::default());
    let svc = LogService::create(
        VolumeSeqId(1),
        pool.clone(),
        ServiceConfig::small(),
        clock(),
    )
    .unwrap();
    let id = svc.create_log("/d").unwrap();
    let queue_depth = svc.metrics().gauge("clio_core_shard0_sealed_queue_blocks");
    let payload = |i: u32| {
        let mut p = i.to_le_bytes().to_vec();
        p.resize(60, b'd');
        p
    };

    // Queue one block short of a batch, then arm the tear: the drain the
    // next seal triggers lands two blocks and fails.
    let mut acked = Vec::new();
    let mut i = 0u32;
    while queue_depth.get() < MAX_BATCH_BLOCKS as i64 - 1 {
        acked.push(svc.append(id, &payload(i), AppendOpts::standard()).unwrap());
        i += 1;
    }
    let data_end = svc.volumes().active().data_end();
    pool.device().tear_next_batch_after(2);
    let err = loop {
        match svc.append(id, &payload(i), AppendOpts::standard()) {
            Ok(r) => acked.push(r),
            Err(e) => break e,
        }
        i += 1;
    };
    assert!(matches!(err, ClioError::Io(_)), "{err:?}");
    assert_eq!(svc.volumes().active().data_end(), data_end + 2);
    assert_eq!(
        queue_depth.get(),
        MAX_BATCH_BLOCKS as i64 - 2,
        "the unwritten suffix stays queued"
    );
    for (n, r) in acked.iter().enumerate() {
        assert_eq!(svc.read_entry(r.addr).unwrap().data, payload(n as u32));
    }

    // The service keeps going, and a flush retries the suffix.
    for n in 0..10u32 {
        acked.push(
            svc.append(id, &payload(i + 1 + n), AppendOpts::standard())
                .unwrap(),
        );
    }
    svc.flush().unwrap();
    assert_eq!(queue_depth.get(), 0);
    assert_eq!(
        svc.volumes().active().data_end(),
        svc.report().blocks_sealed,
        "every sealed block is on the write-once medium exactly once"
    );
    svc.cache().clear();
    let mut cur = svc.cursor("/d").unwrap();
    let got: Vec<_> = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), acked.len());
    for (e, r) in got.iter().zip(&acked) {
        assert_eq!(e.addr, r.addr);
    }
}

// ---------------------------------------------------------------------
// What a cursor may carry across calls (DESIGN.md "Concurrency model").
// ---------------------------------------------------------------------

fn payload(i: u32) -> Vec<u8> {
    format!("entry-{i:06}-{}", "x".repeat(24)).into_bytes()
}

fn seq_of(data: &[u8]) -> u32 {
    std::str::from_utf8(&data[6..12])
        .expect("ascii")
        .parse()
        .expect("number")
}

/// The next entry's sequence number, if there is one.
fn next_seq(cur: &mut LogCursor<'_>) -> Option<u32> {
    cur.next().unwrap().map(|e| seq_of(&e.data))
}

/// On a device with a battery-backed RAM tail the *last device block* is
/// the staged open block and is rewritten by every forced append
/// (§2.3.1), so a cursor that carried it across calls would serve a stale
/// image and hop past the entries added since. Found by the simulation
/// storm, seed 1 ("cursor-sequence … observed 16 at position 1, expected
/// 2") against a prototype that held every block below `data_end`.
#[test]
fn regression_cursor_rereads_rewriteable_ram_tail_block() {
    const ENTRIES: u32 = 60;
    let pool = capturing_pool(256, 4096, true);
    let svc = LogService::create(VolumeSeqId(2), pool, ServiceConfig::small(), clock()).unwrap();
    svc.create_log("/wal").unwrap();
    let mut cur = svc.cursor("/wal").unwrap();
    for i in 0..ENTRIES {
        svc.append_path("/wal", &payload(i), AppendOpts::forced())
            .unwrap();
        // No `next()` in between that comes back empty: that would make
        // the cursor look the block up again anyway.
        assert_eq!(next_seq(&mut cur), Some(i), "tailing cursor at entry {i}");
    }
    assert_eq!(next_seq(&mut cur), None);
    // The staged tail really was rewritten in place: far fewer blocks
    // than forced appends.
    assert!(svc.volumes().active().data_end() < u64::from(ENTRIES) / 2);
    // Backwards over the same blocks, tail block first.
    let mut back = svc.cursor_from_end("/wal").unwrap();
    let seen: Vec<u32> =
        std::iter::from_fn(|| back.prev().unwrap().map(|e| seq_of(&e.data))).collect();
    assert_eq!(seen, (0..ENTRIES).rev().collect::<Vec<_>>());
}

/// The open block grows and a block sealed in memory can still move, so
/// neither may be carried across `next()` calls. A tailing cursor reads
/// each entry the moment it is appended — through the open block, through
/// blocks sealed into the in-memory queue, and (verifying configuration)
/// through blocks that append verification displaces — while a second
/// cursor trails a few blocks behind on sealed device blocks, the ones a
/// cursor *does* carry. Neither skips or repeats an entry.
#[test]
fn regression_cursor_never_holds_open_or_queued_block() {
    const ENTRIES: u32 = 240;
    const LAG: u32 = 25;
    for verify in [false, true] {
        let pool = Arc::new(FaultyPool::default());
        let cfg = if verify {
            ServiceConfig::small().with_verified_appends()
        } else {
            ServiceConfig::small()
        };
        let svc = LogService::create(VolumeSeqId(3), pool.clone(), cfg, clock()).unwrap();
        svc.create_log("/feed").unwrap();
        let mut tail = svc.cursor("/feed").unwrap();
        let mut trailing = svc.cursor("/feed").unwrap();
        for i in 0..ENTRIES {
            if verify && i % 11 == 5 {
                // The next seal lands on garbage (twice, every other
                // time) and is re-placed further on.
                pool.device().corrupt_next_appends(1 + (i / 11) % 2);
            }
            // Buffered appends fill the open block and seal it into the
            // in-memory queue; a forced one now and then drains the queue.
            let opts = if i % 29 == 28 {
                AppendOpts::forced()
            } else {
                AppendOpts::standard()
            };
            svc.append_path("/feed", &payload(i), opts).unwrap();
            assert_eq!(next_seq(&mut tail), Some(i), "verify={verify}: tail");
            if i >= LAG {
                assert_eq!(
                    next_seq(&mut trailing),
                    Some(i - LAG),
                    "verify={verify}: trailing cursor"
                );
            }
        }
        // The in-memory queue was really in play (plain configuration:
        // sealed blocks wait for a batch or a forced append).
        if !verify {
            assert!(svc.volumes().active().data_end() > 10);
        }
        assert_eq!(next_seq(&mut tail), None);
        let rest: Vec<u32> = std::iter::from_fn(|| next_seq(&mut trailing)).collect();
        assert_eq!(rest, (ENTRIES - LAG..ENTRIES).collect::<Vec<_>>());
        // Back down the whole log from where the tail stands.
        let seen: Vec<u32> =
            std::iter::from_fn(|| tail.prev().unwrap().map(|e| seq_of(&e.data))).collect();
        assert_eq!(seen, (0..ENTRIES - 1).rev().collect::<Vec<_>>());
    }
}

/// Entrymap maps this service's cursors were answered from memory, not
/// from a block (`clio_core_locate_memo_hits_total`).
fn memo_hits(svc: &LogService) -> u64 {
    svc.metrics()
        .gather()
        .into_iter()
        .find(|s| s.name == "clio_core_locate_memo_hits_total")
        .map(|s| match s.value {
            clio_obs::MetricValue::Counter(v) => v,
            _ => panic!("not a counter"),
        })
        .expect("the service registers its memo-hit counter")
}

/// The previous entry's sequence number, if there is one.
fn prev_seq(cur: &mut LogCursor<'_>) -> Option<u32> {
    cur.prev().unwrap().map(|e| seq_of(&e.data))
}

/// A cursor remembers an entrymap map only if every block it read the map
/// from is final — the rule its held block already obeys. On a RAM-tail
/// device the boundary block that carries a group's map is, for a while,
/// the staged tail: rewritten in place by every forced append. A cursor
/// that tails into that block and steps back and forth across the boundary
/// asks for the map again and again; each time it must come from the block
/// as it then is, never from memory — and once the block is sealed and
/// another has followed it, memory is where it does come from.
#[test]
fn regression_cursor_memo_holds_no_map_from_a_rewriteable_tail() {
    let pool = capturing_pool(256, 4096, true);
    let svc = LogService::create(VolumeSeqId(5), pool, ServiceConfig::small(), clock()).unwrap();
    svc.create_log("/wal").unwrap();
    let fanout = u64::from(ServiceConfig::small().fanout);
    let mut cur = svc.cursor("/wal").unwrap();
    let mut i = 0u32;
    let append = |i: &mut u32| {
        let r = svc
            .append_path("/wal", &payload(*i), AppendOpts::forced())
            .unwrap();
        *i += 1;
        r.addr.block.0
    };
    // Tail the log until an entry opens a boundary block well into it.
    let boundary = loop {
        let db = append(&mut i);
        assert_eq!(next_seq(&mut cur), Some(i - 1));
        if db >= 2 * fanout && db % fanout == 0 {
            break db;
        }
    };
    // That block — the group's map, then entry `first` — is the staged
    // tail: the device ends with it, and it is still open.
    assert_eq!(svc.volumes().active().data_end(), boundary + 1);
    let first = i - 1;
    let before = memo_hits(&svc);
    // Back across the boundary: the search reads the map out of the tail.
    assert_eq!(prev_seq(&mut cur), Some(first - 1));
    // The tail is rewritten in place under the cursor ...
    assert_eq!(append(&mut i), boundary, "the tail block takes another");
    assert_eq!(next_seq(&mut cur), Some(first - 1));
    assert_eq!(next_seq(&mut cur), Some(first));
    assert_eq!(next_seq(&mut cur), Some(first + 1));
    assert_eq!(next_seq(&mut cur), None);
    // ... and the way back asks for the same map again.
    assert_eq!(prev_seq(&mut cur), Some(first));
    assert_eq!(prev_seq(&mut cur), Some(first - 1));
    assert_eq!(
        memo_hits(&svc) - before,
        0,
        "a map read out of the rewriteable tail was remembered"
    );
    for want in first - 1..i {
        assert_eq!(next_seq(&mut cur), Some(want));
    }
    // Seal the block and put two more behind it: now it is final, and the
    // same walk is answered from memory the second time round.
    while append(&mut i) < boundary + 2 {}
    while next_seq(&mut cur).is_some_and(|seq| seq > first + 1) {}
    while prev_seq(&mut cur).is_some_and(|seq| seq >= first) {}
    let before = memo_hits(&svc);
    assert_eq!(next_seq(&mut cur), Some(first - 1));
    assert_eq!(next_seq(&mut cur), Some(first));
    assert_eq!(prev_seq(&mut cur), Some(first - 1));
    assert!(
        memo_hits(&svc) > before,
        "a map read from final blocks is not read twice"
    );
    // Nothing was skipped or repeated along the way.
    while prev_seq(&mut cur).is_some() {}
    let all: Vec<u32> = std::iter::from_fn(|| next_seq(&mut cur)).collect();
    assert_eq!(all, (0..i).collect::<Vec<_>>());
}

/// A cursor that has run dry has asked the entrymap "anything more?" and
/// been told no — by the map in the device's last block and by the
/// pending maps of the groups still filling. None of those answers may be
/// remembered: the writer goes on to add entries to the very same level-1
/// and level-2 groups, and `next()` must find them, in order.
#[test]
fn regression_tailing_cursor_finds_entries_appended_after_its_memo() {
    let svc = small_service();
    svc.create_log("/busy").unwrap();
    svc.create_log("/rare").unwrap();
    // A flush seals the open block, so an append and a flush make one
    // block and a plan of blocks is a plan of appends. Fanout 4: block 24
    // closes level-1 group 5 (blocks 20–23) and sits in level-1 group 6
    // and level-2 group 1 (blocks 16–31).
    let mut rare_seq = 0u32;
    let mut put = |rare: bool| {
        let r = if rare {
            rare_seq += 1;
            svc.append_path("/rare", &payload(rare_seq - 1), AppendOpts::standard())
        } else {
            svc.append_path("/busy", &payload(0), AppendOpts::standard())
        };
        r.unwrap().addr.block.0
    };
    // (The catalog records of the two `create_log`s come first.)
    let mut next_block = put(false) + 1;
    svc.flush().unwrap();
    assert!(next_block <= 5);
    let mut fill_to = |last: u64, rare_blocks: &[u64], flush_last: bool| {
        while next_block <= last {
            assert_eq!(put(rare_blocks.contains(&next_block)), next_block);
            if next_block < last || flush_last {
                svc.flush().unwrap();
            }
            next_block += 1;
        }
    };
    fill_to(24, &[5, 9, 20, 21], true);
    assert_eq!(svc.volumes().active().data_end(), 25);

    let mut cur = svc.cursor("/rare").unwrap();
    for want in 0..4 {
        assert_eq!(next_seq(&mut cur), Some(want));
    }
    // The dry step asks three maps: group 5's, which sits in block 24 —
    // the device's last block, so it was not remembered when the steps to
    // blocks 20 and 21 read it either — and the pending maps of level-2
    // group 1 and level-1 group 6.
    let before = memo_hits(&svc);
    assert_eq!(next_seq(&mut cur), None);
    assert_eq!(
        memo_hits(&svc) - before,
        0,
        "an answer about the log's tail was remembered"
    );
    // Into the same level-1 group, read while still in memory ...
    fill_to(26, &[26], false);
    assert_eq!(next_seq(&mut cur), Some(4));
    assert_eq!(next_seq(&mut cur), None);
    svc.flush().unwrap();
    // ... on into the next group of the same level-2 group ...
    fill_to(30, &[29, 30], true);
    assert_eq!(next_seq(&mut cur), Some(5));
    assert_eq!(next_seq(&mut cur), Some(6));
    assert_eq!(next_seq(&mut cur), None);
    // ... and past the level-2 boundary.
    fill_to(34, &[33], true);
    assert_eq!(next_seq(&mut cur), Some(7));
    assert_eq!(next_seq(&mut cur), None);
    let back: Vec<u32> = std::iter::from_fn(|| prev_seq(&mut cur)).collect();
    assert_eq!(back, (0..7).rev().collect::<Vec<_>>());
}
