//! Integration tests for the paper's extension points: mirrored log
//! devices (§5.1 fn. 11), atomic file update via log recovery (§6), and
//! displaced entrymap entries under write corruption (§2.3.2).

use std::sync::Arc;

use clio::core::service::{AppendOpts, LogService};
use clio::core::ServiceConfig;
use clio::device::{
    FaultyDevice, LogDevice, MemBlockStore, MemWormDevice, MirroredDevice, SharedDevice,
};
use clio::fs::FileSystem;
use clio::history::AtomicFiles;
use clio::types::{ManualClock, Timestamp, VolumeSeqId};
use clio::volume::DevicePool;
use clio_testkit::sync::Mutex;

fn clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)))
}

#[test]
fn service_runs_on_mirrored_devices_and_survives_replica_rot() {
    // Each "volume" is a 2-way mirror; we rot random blocks on one replica
    // and the service must not notice.
    struct MirrorPool {
        raws: Mutex<Vec<Vec<Arc<MemWormDevice>>>>,
    }
    impl DevicePool for MirrorPool {
        fn next_device(&self) -> clio::types::Result<SharedDevice> {
            let raw: Vec<Arc<MemWormDevice>> = (0..2)
                .map(|_| Arc::new(MemWormDevice::new(512, 4096)))
                .collect();
            let shared: Vec<SharedDevice> = raw.iter().map(|r| r.clone() as SharedDevice).collect();
            self.raws.lock().push(raw);
            Ok(Arc::new(MirroredDevice::new(shared)))
        }
    }
    let pool = Arc::new(MirrorPool {
        raws: Mutex::new(Vec::new()),
    });
    let svc = LogService::create(
        VolumeSeqId(1),
        pool.clone(),
        ServiceConfig {
            block_size: 512,
            fanout: 4,
            cache_blocks: 16, // tiny cache so reads really hit the mirror
            ..ServiceConfig::default()
        },
        clock(),
    )
    .unwrap();
    svc.create_log("/m").unwrap();
    for i in 0..200u32 {
        svc.append_path(
            "/m",
            format!("entry {i}").as_bytes(),
            AppendOpts::standard(),
        )
        .unwrap();
    }
    svc.flush().unwrap();

    // Rot every third block of replica 0 (device-level corruption on one
    // medium).
    {
        // Clone the handle out rather than invalidating under the
        // bookkeeping lock (lockdep flags locks held across device writes).
        let replica0 = pool.raws.lock()[0][0].clone();
        let end = replica0.query_end().unwrap().0;
        for b in (1..end).step_by(3) {
            replica0.invalidate_block(clio::types::BlockNo(b)).unwrap();
        }
    }
    svc.cache().clear();
    let mut cur = svc.cursor("/m").unwrap();
    let all = cur.collect_remaining().unwrap();
    assert_eq!(all.len(), 200, "mirror must mask single-replica rot");
    for (i, e) in all.iter().enumerate() {
        assert_eq!(e.data, format!("entry {i}").into_bytes());
    }
}

#[test]
fn atomic_files_bank_transfer_is_all_or_nothing() {
    let svc = Arc::new(
        LogService::create(
            VolumeSeqId(2),
            Arc::new(clio::volume::MemDevicePool::new(512, 4096)),
            ServiceConfig {
                block_size: 512,
                fanout: 4,
                cache_blocks: 128,
                ..ServiceConfig::default()
            },
            clock(),
        )
        .unwrap(),
    );
    let store = Arc::new(MemBlockStore::new(512, 1024));
    let af = AtomicFiles::attach(svc, FileSystem::mkfs(store, 64).unwrap(), "/txns").unwrap();
    // Set up two accounts atomically, then transfer atomically.
    let mut t = af.begin();
    t.write("/alice", 0, b"0100");
    t.write("/bob", 0, b"0000");
    af.commit(t).unwrap();
    let mut t = af.begin();
    t.write("/alice", 0, b"0050");
    t.write("/bob", 0, b"0050");
    af.commit(t).unwrap();
    let read = |p: &str| {
        let ino = af.fs().lookup(p).unwrap();
        let mut b = [0u8; 4];
        af.fs().read_at(ino, 0, &mut b).unwrap();
        b.to_vec()
    };
    assert_eq!(read("/alice"), b"0050");
    assert_eq!(read("/bob"), b"0050");
}

#[test]
fn displaced_entrymap_entries_remain_findable() {
    // Corrupt the append of a block that carries entrymap records; with
    // verification enabled the service invalidates it and re-places the
    // image (group-tagged maps) in the next block — searches must still
    // find old entries through the displaced maps (§2.3.2).
    struct FaultyPool {
        faulty: Mutex<Option<Arc<FaultyDevice>>>,
    }
    impl DevicePool for FaultyPool {
        fn next_device(&self) -> clio::types::Result<SharedDevice> {
            let f = Arc::new(FaultyDevice::new(Arc::new(MemWormDevice::new(512, 8192))));
            *self.faulty.lock() = Some(f.clone());
            Ok(f)
        }
    }
    let pool = Arc::new(FaultyPool {
        faulty: Mutex::new(None),
    });
    let cfg = ServiceConfig {
        block_size: 512,
        fanout: 4,
        cache_blocks: 16,
        ..ServiceConfig::default()
    }
    .with_verified_appends();
    let svc = LogService::create(VolumeSeqId(3), pool.clone(), cfg, clock()).unwrap();
    svc.create_log("/needle").unwrap();
    svc.create_log("/hay").unwrap();
    svc.append_path("/needle", b"old entry", AppendOpts::forced())
        .unwrap();
    // Fill several entrymap groups; corrupt appends periodically so some
    // boundary blocks (which carry the maps) get invalidated and displaced.
    for i in 0..400u32 {
        if i % 7 == 0 {
            pool.faulty.lock().as_ref().unwrap().corrupt_next_append();
        }
        let mut payload = format!("hay {i} ").into_bytes();
        payload.resize(100, b'h');
        svc.append_path("/hay", &payload, AppendOpts::forced())
            .unwrap();
    }
    // Distant search for the needle from the tail, cold cache.
    svc.cache().clear();
    let mut cur = svc.cursor_from_end("/needle").unwrap();
    let hit = cur.prev().unwrap().expect("needle still locatable");
    assert_eq!(hit.data, b"old entry");
    // And the haystack survived intact despite the corrupted writes.
    let mut cur = svc.cursor("/hay").unwrap();
    let hay = cur.collect_remaining().unwrap();
    assert_eq!(hay.len(), 400);
}

#[test]
fn offline_volumes_fail_cleanly_and_come_back() {
    use clio::types::ClioError;
    use clio::volume::{MemDevicePool, RecordingPool};
    // Small volumes so the log spans several.
    let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(512, 48))));
    let svc = LogService::create(
        VolumeSeqId(9),
        pool,
        ServiceConfig {
            block_size: 512,
            fanout: 4,
            cache_blocks: 8, // tiny cache so old volumes really need the medium
            ..ServiceConfig::default()
        },
        clock(),
    )
    .unwrap();
    svc.create_log("/arch").unwrap();
    for i in 0..400u32 {
        let mut payload = format!("rec {i} ").into_bytes();
        payload.resize(120, b'a');
        svc.append_path("/arch", &payload, AppendOpts::standard())
            .unwrap();
    }
    svc.flush().unwrap();
    assert!(svc.volumes().volume_count() >= 3);

    // The active volume cannot be dismounted.
    let active = svc.volumes().volume_count() - 1;
    assert!(svc.volumes().set_offline(active).is_err());

    // Dismount volume 0; flood the cache; old entries now need the medium.
    svc.volumes().set_offline(0).unwrap();
    svc.cache().clear();
    let mut cur = svc.cursor("/arch").unwrap();
    let err = loop {
        match cur.next() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("scan should hit the offline volume"),
            Err(e) => break e,
        }
    };
    assert!(
        matches!(err, ClioError::VolumeOffline(0)),
        "expected VolumeOffline(0), got {err}"
    );

    // Recent entries (active volume) remain readable while 0 is offline.
    let mut cur = svc.cursor_from_end("/arch").unwrap();
    let last = cur.prev().unwrap().unwrap();
    assert!(last.data.starts_with(b"rec 399 "));

    // Remount and the full history is back.
    svc.volumes().bring_online(0).unwrap();
    let mut cur = svc.cursor("/arch").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 400);
}
