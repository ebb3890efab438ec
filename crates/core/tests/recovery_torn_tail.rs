//! Crash recovery with a torn/corrupted tail (§2.3.2, §3.4).
//!
//! A crash mid-write may leave the most recently written blocks filled
//! with garbage. These tests tear the tail with seeded fault injection
//! (`clio_device::FaultyDevice` over `clio_testkit::rng`) and assert that
//! recovery invalidates the damage and rebuilds entrymap and catalog
//! state that exactly matches the durable pre-crash prefix.

use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_device::{FaultPlan, FaultyDevice, SharedDevice};
use clio_testkit::prop::{any_u64, bools, check, pair, triple, u16s, vec_of};
use clio_testkit::rng::StdRng;
use clio_testkit::sync::Mutex;
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::{MemDevicePool, RecordingPool};

type FaultHandles = Arc<Mutex<Vec<Arc<FaultyDevice>>>>;

/// A recording pool whose devices are all fault-injection wrappers, with
/// the handles kept so tests can tear specific writes.
fn faulty_pool(block_size: usize, capacity: u64) -> (Arc<RecordingPool>, FaultHandles) {
    let handles: FaultHandles = Arc::new(Mutex::new(Vec::new()));
    let h = handles.clone();
    let pool = Arc::new(RecordingPool::wrapping(
        Arc::new(MemDevicePool::new(block_size, capacity)),
        move |dev: SharedDevice| {
            let f = Arc::new(FaultyDevice::new(dev, FaultPlan::default()));
            h.lock().push(f.clone());
            f
        },
    ));
    (pool, handles)
}

fn clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)))
}

/// The deterministic walkthrough: a flushed prefix, one torn forced
/// append, crash, recover.
#[test]
fn torn_tail_block_is_invalidated_and_prefix_survives() {
    let (pool, handles) = faulty_pool(256, 1 << 14);
    let cfg = ServiceConfig::small();
    {
        let svc = LogService::create(VolumeSeqId(9), pool.clone(), cfg.clone(), clock()).unwrap();
        svc.create_log("/t").unwrap();
        for i in 0..20 {
            let mut p = format!("p{i}:").into_bytes();
            p.resize(64, b'd');
            svc.append_path("/t", &p, AppendOpts::standard()).unwrap();
        }
        svc.flush().unwrap();
        // The tail block of the crash: written as garbage on the media.
        handles.lock().last().unwrap().corrupt_next_append();
        svc.append_path("/t", b"torn entry", AppendOpts::forced())
            .unwrap();
    } // crash

    let (svc, report) = LogService::recover(pool.devices(), pool.clone(), cfg, clock()).unwrap();
    assert_eq!(report.volumes, 1);
    assert!(report.rebuild_blocks_read > 0);
    // Per-phase wall-clock timings (§3.4 steps): each populated, and
    // their sum never exceeds the whole-recovery total.
    assert!(
        report.end_locate_us >= 1,
        "step 1 timing missing: {report:?}"
    );
    assert!(report.rebuild_us >= 1, "step 2 timing missing: {report:?}");
    assert!(report.catalog_us >= 1, "step 3 timing missing: {report:?}");
    assert!(
        report.end_locate_us + report.rebuild_us + report.catalog_us <= report.total_us,
        "phase sum exceeds total: {report:?}"
    );
    assert!(
        !report.invalidated.is_empty(),
        "torn block was not invalidated: {report:?}"
    );
    let torn = handles.lock().last().unwrap().corrupted_blocks();
    assert_eq!(torn.len(), 1);

    // The durable prefix is intact and in order; the torn entry is gone.
    let mut cur = svc.cursor("/t").unwrap();
    let got = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), 20);
    for (i, e) in got.iter().enumerate() {
        assert!(e.data.starts_with(format!("p{i}:").as_bytes()), "entry {i}");
    }

    // The service keeps working past the invalidated block.
    svc.append_path("/t", b"post-recovery", AppendOpts::forced())
        .unwrap();
    let mut cur = svc.cursor("/t").unwrap();
    let got = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), 21);
    assert_eq!(got.last().unwrap().data, b"post-recovery");
}

/// The receipt of an entry lost with a torn tail must not resolve to a
/// stranger. Recovery burns the torn block, and the blocks written after
/// it hold unrelated entries at the same slots; the reader's
/// displaced-address probe used to take the first of them for a verified
/// re-placement and answer the old address with somebody else's entry.
#[test]
fn regression_address_into_a_burned_torn_tail_finds_no_stranger() {
    let (pool, handles) = faulty_pool(256, 1 << 14);
    let cfg = ServiceConfig::small();
    let torn = {
        let svc = LogService::create(VolumeSeqId(9), pool.clone(), cfg.clone(), clock()).unwrap();
        svc.create_log("/t").unwrap();
        svc.append_path("/t", b"durable", AppendOpts::forced())
            .unwrap();
        handles.lock().last().unwrap().corrupt_next_append();
        svc.append_path("/t", b"torn entry", AppendOpts::forced())
            .unwrap()
    }; // crash

    let (svc, report) = LogService::recover(pool.devices(), pool.clone(), cfg, clock()).unwrap();
    assert_eq!(report.invalidated.len(), 1, "{report:?}");
    for i in 0..8 {
        let p = format!("stranger {i}");
        svc.append_path("/t", p.as_bytes(), AppendOpts::forced())
            .unwrap();
    }
    match svc.read_entry(torn.addr) {
        Err(clio_types::ClioError::NotFound(_)) => {}
        other => panic!("a lost entry's address answered {other:?}"),
    }
}

/// Group-commit torn batches: buffered appends queue several sealed
/// blocks in memory, a forced append drains them in one vectored device
/// write, and the crash tears that write after `k` of its `n` blocks —
/// for every `k`. Recovery must land on a consistent prefix: everything
/// acknowledged durable before the tear (the flushed receipts) reads
/// back, the recovered tail is an in-order prefix of the staged entries,
/// and re-recovery is idempotent.
#[test]
fn torn_group_commit_batch_recovers_a_consistent_prefix() {
    const STAGED: usize = 12;
    const MAX_TEAR: usize = 10;
    let mut rng = StdRng::seed_from_u64(0x70_71);
    // Identical payloads for every tear point: placement is deterministic.
    let staged_payloads: Vec<Vec<u8>> = (0..STAGED)
        .map(|i| {
            let mut p = format!("s{i}:").into_bytes();
            let tag = p.len();
            p.resize(64, 0);
            rng.fill(&mut p[tag..]);
            p
        })
        .collect();
    let mut recovered_lens: Vec<usize> = Vec::new();
    let mut saw_full_batch = false;
    for k in 0..=MAX_TEAR {
        let (pool, handles) = faulty_pool(256, 1 << 14);
        let cfg = ServiceConfig::small();
        let mut oracle: Vec<Vec<u8>> = Vec::new();
        let mut flushed_receipts = Vec::new();
        let torn = {
            let svc =
                LogService::create(VolumeSeqId(9), pool.clone(), cfg.clone(), clock()).unwrap();
            svc.create_log("/t").unwrap();
            for i in 0..20 {
                let mut p = format!("p{i}:").into_bytes();
                p.resize(64, b'd');
                flushed_receipts.push(svc.append_path("/t", &p, AppendOpts::standard()).unwrap());
                oracle.push(p);
            }
            svc.flush().unwrap();
            // Stage: these seal several blocks into the in-memory queue
            // without touching the device.
            for p in &staged_payloads {
                svc.append_path("/t", p, AppendOpts::standard()).unwrap();
            }
            // Commit: the forced append drains the queue in one vectored
            // write, torn after k blocks.
            handles.lock().last().unwrap().tear_next_batch_after(k);
            svc.append_path("/t", b"forced-tail", AppendOpts::forced())
                .is_err()
        }; // crash
        if !torn {
            saw_full_batch = true;
        }

        let (svc, _report) =
            LogService::recover(pool.devices(), pool.clone(), cfg.clone(), clock()).unwrap();
        // Acknowledged-durable receipts survive byte-for-byte.
        for (want, r) in oracle.iter().zip(&flushed_receipts) {
            assert_eq!(
                &svc.read_entry(r.addr).expect("flushed receipt").data,
                want,
                "tear k={k}"
            );
        }
        // The scan is the oracle plus an in-order prefix of the staged
        // entries (with the forced tail last, only after all of them).
        let mut cur = svc.cursor("/t").unwrap();
        let got = cur.collect_remaining().unwrap();
        assert!(got.len() >= oracle.len(), "tear k={k} lost flushed entries");
        for (want, have) in oracle.iter().zip(&got) {
            assert_eq!(want, &have.data, "tear k={k}");
        }
        let tail: Vec<&[u8]> = got[oracle.len()..]
            .iter()
            .map(|e| e.data.as_slice())
            .collect();
        let mut expect_seq: Vec<&[u8]> = staged_payloads.iter().map(|p| p.as_slice()).collect();
        expect_seq.push(b"forced-tail");
        assert!(
            tail.len() <= expect_seq.len() && tail == expect_seq[..tail.len()],
            "tear k={k}: recovered tail is not a staged-order prefix ({} entries)",
            tail.len()
        );
        if !torn {
            assert_eq!(tail.len(), expect_seq.len(), "untorn batch lost entries");
        }
        if k == 0 {
            assert_eq!(
                got.len(),
                oracle.len(),
                "a batch torn before its first block must recover to the flush point"
            );
        }
        recovered_lens.push(got.len());

        // Idempotent: a second recovery finds the same entries and
        // nothing further to invalidate.
        drop(svc);
        let (svc2, report2) =
            LogService::recover(pool.devices(), pool.clone(), cfg, clock()).unwrap();
        assert!(
            report2.invalidated.is_empty(),
            "tear k={k}: second recovery re-invalidated: {report2:?}"
        );
        let mut cur = svc2.cursor("/t").unwrap();
        assert_eq!(cur.collect_remaining().unwrap().len(), got.len());
        // And the service keeps working.
        svc2.append_path("/t", b"post-recovery", AppendOpts::forced())
            .unwrap();
    }
    assert!(
        saw_full_batch,
        "tear sweep never exceeded the batch size; raise MAX_TEAR"
    );
    assert!(
        recovered_lens.windows(2).all(|w| w[0] <= w[1]),
        "more surviving blocks recovered fewer entries: {recovered_lens:?}"
    );
    assert!(
        recovered_lens.first() < recovered_lens.last(),
        "the sweep never recovered a longer prefix: {recovered_lens:?}"
    );
}

/// The seeded sweep: random flushed prefixes, one to five torn tail
/// writes, arbitrary payload bytes from `clio_testkit::rng`.
#[test]
fn recovery_rebuilds_exactly_the_precrash_prefix() {
    let g = triple(
        &vec_of(&pair(&u16s(1..300), &bools()), 4..40),
        &u16s(1..6),
        &any_u64(),
    );
    check(
        "recovery_rebuilds_exactly_the_precrash_prefix",
        12,
        &g,
        |(lens, torn_count, payload_seed)| {
            let mut rng = StdRng::seed_from_u64(*payload_seed);
            let (pool, handles) = faulty_pool(256, 1 << 14);
            let cfg = ServiceConfig::small();
            let mut oracle: Vec<Vec<u8>> = Vec::new();
            {
                let svc = LogService::create(VolumeSeqId(9), pool.clone(), cfg.clone(), clock())
                    .expect("create");
                svc.create_log("/t").expect("create log");
                for (i, (len, forced)) in lens.iter().enumerate() {
                    let mut p = format!("p{i}:").into_bytes();
                    let tag = p.len();
                    p.resize(tag + *len as usize, 0);
                    rng.fill(&mut p[tag..]);
                    let opts = if *forced {
                        AppendOpts::forced()
                    } else {
                        AppendOpts::standard()
                    };
                    svc.append_path("/t", &p, opts).expect("append");
                    oracle.push(p);
                }
                svc.flush().expect("flush");
                // Tear the tail: every block the crashing writes touch is
                // garbage on the media.
                for t in 0..*torn_count {
                    handles.lock().last().expect("device").corrupt_next_append();
                    let _ =
                        svc.append_path("/t", format!("torn{t}").as_bytes(), AppendOpts::forced());
                }
            } // crash

            let (svc, report) =
                LogService::recover(pool.devices(), pool.clone(), cfg.clone(), clock())
                    .expect("recover");
            assert!(
                !report.invalidated.is_empty(),
                "no blocks invalidated: {report:?}"
            );
            assert!(
                report.end_locate_us >= 1
                    && report.rebuild_us >= 1
                    && report.catalog_us >= 1
                    && report.end_locate_us + report.rebuild_us + report.catalog_us
                        <= report.total_us,
                "inconsistent phase timings: {report:?}"
            );

            // Catalog: the log resolves; entrymap + data: the durable
            // prefix reads back exactly, forward and backward. Entries
            // from the torn phase may survive only after the prefix.
            svc.resolve("/t").expect("catalog entry");
            let mut cur = svc.cursor("/t").expect("cursor");
            let got = cur.collect_remaining().expect("scan");
            assert!(
                got.len() >= oracle.len(),
                "{} < {}",
                got.len(),
                oracle.len()
            );
            for (want, have) in oracle.iter().zip(&got) {
                assert_eq!(want, &have.data);
            }
            for e in &got[oracle.len()..] {
                assert!(e.data.starts_with(b"torn"), "unexpected entry {:?}", e.data);
            }
            let mut cur = svc.cursor_from_end("/t").expect("cursor");
            let mut back = Vec::new();
            while let Some(e) = cur.prev().expect("prev") {
                back.push(e.data);
            }
            back.reverse();
            let fwd: Vec<_> = got.iter().map(|e| e.data.clone()).collect();
            assert_eq!(back, fwd, "backward scan disagrees with forward scan");

            // Recovery converged: a second recovery from the same media
            // finds nothing further to invalidate and the same entries.
            drop(svc);
            let (svc2, report2) = LogService::recover(pool.devices(), pool.clone(), cfg, clock())
                .expect("second recover");
            assert!(
                report2.invalidated.is_empty(),
                "second recovery re-invalidated: {report2:?}"
            );
            let mut cur = svc2.cursor("/t").expect("cursor");
            let again: Vec<_> = cur
                .collect_remaining()
                .expect("scan")
                .into_iter()
                .map(|e| e.data)
                .collect();
            assert_eq!(again, fwd, "recovery is not idempotent");
        },
    );
}
