//! §2.3.2 detection with one check per block: a block is CRC-checked
//! where its bytes come off the medium, and what memory holds is served
//! as it is. What that must not change — a garbled block fails exactly as
//! before and is never cached, an invalidated block still resolves to its
//! re-placement — and what it buys: a hit reads nothing.

use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_device::{FaultyDevice, MemWormDevice, SharedDevice};
use clio_obs::MetricValue;
use clio_types::{BlockNo, ClioError, ManualClock, Timestamp, VolumeSeqId};
use clio_volume::DevicePool;

/// In-memory write-once devices behind fault injectors; tests arm faults
/// on the most recently handed-out device.
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
        let faulty = Arc::new(FaultyDevice::new(base));
        *self.0.lock() = Some(faulty.clone());
        Ok(faulty)
    }
}

fn service(pool: &Arc<FaultyPool>, cfg: ServiceConfig) -> LogService {
    let clock = Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)));
    LogService::create(VolumeSeqId(27), pool.clone(), cfg, clock).unwrap()
}

/// Blocks the service has read off its devices so far.
fn device_reads(svc: &LogService) -> u64 {
    let reads = svc
        .metrics()
        .gather()
        .into_iter()
        .find(|s| s.name == "clio_device_reads_total")
        .expect("the device read counter is registered");
    match reads.value {
        MetricValue::Counter(n) => n,
        other => panic!("clio_device_reads_total is {other:?}"),
    }
}

/// Without append verification nothing reads a block back, so a block
/// garbled on the medium is found only when a cold cache fills from it:
/// the read fails as it always did, and the block stays out of the cache,
/// so the next read asks the medium again.
#[test]
fn a_garbled_block_fails_as_before_and_is_never_cached() {
    let pool = Arc::new(FaultyPool::default());
    let svc = service(&pool, ServiceConfig::small());
    svc.create_log("/d").unwrap();
    svc.append_path("/d", b"before", AppendOpts::forced())
        .unwrap();
    pool.device().corrupt_next_append();
    let lost = svc
        .append_path("/d", b"garbled", AppendOpts::forced())
        .unwrap();
    assert_eq!(
        svc.read_entry(lost.addr).unwrap().data,
        b"garbled",
        "the written-through block"
    );

    svc.cache().clear();
    let (reads, misses) = (device_reads(&svc), svc.cache().stats().misses);
    for round in 1..=2u64 {
        assert_eq!(
            svc.read_entry(lost.addr).unwrap_err(),
            ClioError::CorruptBlock(BlockNo(0))
        );
        assert_eq!(device_reads(&svc), reads + round, "read {round}");
        assert_eq!(svc.cache().stats().misses, misses + round, "read {round}");
        assert!(
            svc.cache().is_empty(),
            "a block that fails its check is cached"
        );
    }
}

/// An address into a block that append verification invalidated still
/// resolves through the `displaced_by` stamp of its re-placement, from the
/// medium and from the cache.
#[test]
fn an_invalidated_block_resolves_to_its_re_placement() {
    const CORRUPTED: u32 = 2;
    let pool = Arc::new(FaultyPool::default());
    let svc = service(&pool, ServiceConfig::small().with_verified_appends());
    svc.create_log("/d").unwrap();
    svc.append_path("/d", b"before", AppendOpts::forced())
        .unwrap();
    pool.device().corrupt_next_appends(CORRUPTED);
    let moved = svc
        .append_path("/d", b"moved", AppendOpts::forced())
        .unwrap();
    for cold in [true, false] {
        if cold {
            svc.cache().clear();
        }
        let e = svc.read_entry(moved.addr).unwrap();
        assert_eq!(e.data, b"moved", "cold cache: {cold}");
        assert_eq!(
            e.addr.block.0,
            moved.addr.block.0 + u64::from(CORRUPTED),
            "cold cache: {cold}"
        );
    }
}

/// Once a block is in the cache, reading it again costs the medium
/// nothing: the verified block is handed over as it is held.
#[test]
fn a_hit_on_a_verified_block_reads_nothing() {
    let pool = Arc::new(FaultyPool::default());
    let svc = service(&pool, ServiceConfig::small());
    svc.create_log("/d").unwrap();
    let receipts: Vec<_> = (0..40u8)
        .map(|i| {
            svc.append_path("/d", &[i; 40], AppendOpts::standard())
                .unwrap()
        })
        .collect();
    svc.flush().unwrap();
    svc.cache().clear();
    for r in &receipts {
        svc.read_entry(r.addr).unwrap();
    }
    let (reads, before) = (device_reads(&svc), svc.cache().stats());
    for (i, r) in (0u8..).zip(&receipts) {
        assert_eq!(svc.read_entry(r.addr).unwrap().data, [i; 40]);
    }
    let after = svc.cache().stats();
    assert_eq!(device_reads(&svc), reads, "a hit went to the medium");
    assert_eq!(after.misses, before.misses);
    assert!(
        after.hits > before.hits,
        "the reads were served by the cache"
    );
}
