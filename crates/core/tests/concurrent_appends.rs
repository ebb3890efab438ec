//! Real-thread tests of the commit gate: forced appends that are known to
//! be arriving ride the leader's write, a follower behind a slow device
//! parks instead of spinning, and a contended shard loses nothing. (That
//! a parked follower is woken and durable in every interleaving is
//! model-checked on the real service in `check_service.rs`.)
//!
//! The interleavings are forced, not hoped for: the appenders are started
//! while the test holds every state lock (`while_append_locked`), and the
//! `arriving` gauge says when they have all announced themselves. The one
//! slow write is a host-paced `LatencyDevice`, tens of milliseconds
//! against a poll budget of tens of microseconds. Where the scheduler can
//! still take a thread away at the wrong moment, the assertion is the
//! protocol's contract — "they shared the write, or the leader's bounded
//! wait ran out and said so" — not the lucky outcome.

use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService, Receipt};
use clio_core::ServiceConfig;
use clio_costmodel::{CostModel, LatencyDevice};
use clio_obs::MetricValue;
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::{DevicePool, MemDevicePool, RecordingPool};

fn clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)))
}

/// A one-shard service over `pool`.
fn service(pool: Arc<dyn DevicePool>) -> LogService {
    let cfg = ServiceConfig::small();
    assert_eq!(cfg.shards, 1);
    LogService::create(VolumeSeqId(17), pool, cfg, clock()).unwrap()
}

/// The value of counter or gauge `name` (shard 0's series: one shard).
fn metric(svc: &LogService, name: &str) -> i64 {
    for s in svc.metrics().gather() {
        if s.name == name {
            return match s.value {
                MetricValue::Counter(v) => v as i64,
                MetricValue::Gauge(v) => v,
                MetricValue::Histogram(_) => panic!("{name} is a histogram"),
            };
        }
    }
    panic!("no metric named {name}");
}

const ARRIVING: &str = "clio_core_shard0_arriving";
const TIMEOUTS: &str = "clio_shard_arrival_timeouts_total";
const POLLED: &str = "clio_shard_followers_polled_total";
const PARKED: &str = "clio_shard_followers_parked_total";

/// Starts one forced appender per payload with every state lock held,
/// lets go once all of them have announced themselves, and returns their
/// receipts in payload order.
fn release_together(svc: &LogService, payloads: &[&'static [u8]]) -> Vec<Receipt> {
    let id = svc.resolve("/txn").unwrap();
    std::thread::scope(|s| {
        let appenders: Vec<_> = svc.while_append_locked(|| {
            let spawned = payloads
                .iter()
                .map(|&p| s.spawn(move || svc.append(id, p, AppendOpts::forced()).unwrap()))
                .collect();
            while metric(svc, ARRIVING) < payloads.len() as i64 {
                std::thread::yield_now();
            }
            spawned
        });
        appenders.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn announced_arrivals_share_the_leaders_write() {
    const PAYLOADS: [&[u8]; 4] = [b"alpha", b"bravo", b"charlie", b"delta"];
    let svc = service(Arc::new(MemDevicePool::new(256, 4096)));
    svc.create_log("/txn").unwrap();
    let writes_before = svc.obs().device_stats.write_ops();

    let receipts = release_together(&svc, &PAYLOADS);

    assert_eq!(
        metric(&svc, ARRIVING),
        0,
        "every announcement was withdrawn"
    );
    let writes = svc.obs().device_stats.write_ops() - writes_before;
    let timeouts = metric(&svc, TIMEOUTS);
    println!(
        "{} announced appends: {writes} device write(s), {timeouts} timed-out arrival wait(s)",
        PAYLOADS.len()
    );
    assert!(
        writes == 1 || timeouts > 0,
        "{} announced appends took {writes} device writes and no arrival wait timed out",
        PAYLOADS.len()
    );
    if timeouts == 0 {
        let block = receipts[0].addr.block;
        assert!(receipts.iter().all(|r| r.addr.block == block));
    }
    for (r, p) in receipts.iter().zip(PAYLOADS) {
        assert_eq!(svc.read_entry(r.addr).unwrap().data, p);
    }
}

#[test]
fn a_follower_behind_a_slow_write_parks() {
    const PAYLOADS: [&[u8]; 2] = [b"first", b"second"];
    // Every device access holds its caller for at least 20 ms of host
    // time, so the leader's write outlasts a follower's poll budget
    // (about 25 µs) by three orders of magnitude.
    let model = CostModel {
        optical_seek_us: 0,
        optical_transfer_us: 20_000,
        ..CostModel::default()
    };
    let pool = Arc::new(RecordingPool::wrapping(
        Arc::new(MemDevicePool::new(256, 4096)),
        move |inner| Arc::new(LatencyDevice::new(inner, model, None)),
    ));
    let svc = service(pool.clone());
    svc.create_log("/txn").unwrap();

    // A leader is inside the device write, under the state lock. The other
    // appender either staged in time — then it is at the gate behind a
    // commit that outlasts its polling, and must park — or the leader's
    // wait for it ran out and it has yet to stage.
    let receipts = release_together(&svc, &PAYLOADS);

    println!(
        "behind a slow write: {} parked, {} released polling, {} timed-out arrival wait(s)",
        metric(&svc, PARKED),
        metric(&svc, POLLED),
        metric(&svc, TIMEOUTS)
    );
    if metric(&svc, TIMEOUTS) == 0 {
        assert_eq!(metric(&svc, PARKED), 1, "the follower parked");
        assert_eq!(metric(&svc, POLLED), 0, "nobody was released polling");
    }
    // Both entries are durable: they survive the service.
    drop(svc);
    let (svc, _) =
        LogService::recover(pool.devices(), pool, ServiceConfig::small(), clock()).unwrap();
    for (r, p) in receipts.iter().zip(PAYLOADS) {
        assert_eq!(svc.read_entry(r.addr).unwrap().data, p);
    }
}

#[test]
fn contended_forced_appends_lose_nothing() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2_000;
    let payload =
        |t: u64, i: u64| format!("t{t}#{i}:{}", "x".repeat((i % 23) as usize)).into_bytes();

    let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(
        256, 16_384,
    ))));
    let svc = service(pool.clone());
    svc.create_log("/txn").unwrap();
    for t in 0..THREADS {
        svc.create_log(&format!("/txn/c{t}")).unwrap();
    }
    let writes_before = svc.obs().device_stats.write_ops();
    let barrier = std::sync::Barrier::new(THREADS as usize);
    let receipts: Vec<Vec<Receipt>> = std::thread::scope(|s| {
        let appenders: Vec<_> = (0..THREADS)
            .map(|t| {
                let (svc, barrier) = (&svc, &barrier);
                s.spawn(move || {
                    let id = svc.resolve(&format!("/txn/c{t}")).unwrap();
                    barrier.wait();
                    (0..PER_THREAD)
                        .map(|i| {
                            svc.append(id, &payload(t, i), AppendOpts::forced())
                                .unwrap()
                        })
                        .collect()
                })
            })
            .collect();
        appenders.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let writes = svc.obs().device_stats.write_ops() - writes_before;
    assert!(
        writes <= THREADS * PER_THREAD,
        "{writes} device writes for {} forced appends",
        THREADS * PER_THREAD
    );
    assert_eq!(metric(&svc, ARRIVING), 0);
    println!(
        "contended forced appends: {} appends in {writes} device writes \
         ({} followers released polling, {} parked, {} arrival waits timed out)",
        THREADS * PER_THREAD,
        metric(&svc, POLLED),
        metric(&svc, PARKED),
        metric(&svc, TIMEOUTS)
    );

    let check = |svc: &LogService| {
        for (t, per_thread) in receipts.iter().enumerate() {
            for (i, r) in per_thread.iter().enumerate() {
                let e = svc.read_entry(r.addr).unwrap();
                assert_eq!(e.data, payload(t as u64, i as u64));
            }
        }
    };
    check(&svc);
    // Every append was acknowledged forced, so every one survives a crash.
    drop(svc);
    let (svc, _) =
        LogService::recover(pool.devices(), pool, ServiceConfig::small(), clock()).unwrap();
    check(&svc);
}
