//! Golden equivalence of the one append path.
//!
//! The constants below were produced by the pre-PR-14 *legacy* pipeline
//! (one device write per forced append, group commit switched off) at the
//! commit just before it was deleted, running the script in this file. The
//! surviving group-commit pipeline must reproduce them bit for bit: a lone
//! client is its own commit leader every time (no arrival announced, nothing
//! to wait for), so it issues the same device operations with the same
//! images in the same order — this is the proof behind DESIGN.md's
//! "identical device-op sequence" sentence.

use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_types::{BlockNo, ManualClock, Timestamp, VolumeSeqId};
use clio_volume::{MemDevicePool, RecordingPool};

const BLOCK: usize = 256;
const VOLUME_BLOCKS: u64 = 64;
const FORCED_APPENDS: u32 = 60;
const BUFFERED_APPENDS: u32 = 400;

/// What the script leaves behind.
struct Outcome {
    /// Device write operations issued by the forced-only phase.
    forced_phase_write_ops: u64,
    /// Per volume: `(media hash, data_end)`.
    volumes: Vec<(u64, u64)>,
}

// What the legacy pipeline left behind running [`run_script`].
const GOLDEN_FORCED_WRITE_OPS: u64 = 62;
const GOLDEN_VOLUMES: [(u64, u64); 5] = [
    (14_105_034_572_712_843_665, 63),
    (14_901_560_893_140_851_443, 63),
    (4_867_594_888_882_499_675, 63),
    (18_380_912_878_714_054_917, 60),
    (17_952_539_206_868_144_973, 54),
];

/// The deterministic single-client script: a forced-only phase, then
/// mixed-size buffered appends (some fragmenting over several blocks) with
/// periodic flushes, long enough to roll over several successor volumes.
fn run_script() -> Outcome {
    let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(
        BLOCK,
        VOLUME_BLOCKS,
    ))));
    let cfg = ServiceConfig::small();
    assert_eq!(cfg.shards, 1);
    let clock = Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)));
    let svc = LogService::create(VolumeSeqId(14), pool.clone(), cfg, clock).unwrap();
    svc.create_log("/txn").unwrap();
    svc.create_log("/audit").unwrap();
    svc.create_log("/audit/sub").unwrap();

    let before = svc.obs().device_stats.write_ops();
    for i in 0..FORCED_APPENDS {
        let len = 10 + (i as usize * 7) % 90;
        svc.append_path("/txn", &payload(i, len), AppendOpts::forced())
            .unwrap();
    }
    let forced_phase_write_ops = svc.obs().device_stats.write_ops() - before;

    let mut x = 0x14u32;
    for i in 0..BUFFERED_APPENDS {
        // Numerical-Recipes LCG: sizes from a few bytes to several blocks.
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let len = match (x >> 24) % 8 {
            0 => 300 + (x >> 8) as usize % 500,
            _ => 1 + (x >> 8) as usize % 120,
        };
        let (path, opts) = match i % 3 {
            0 => ("/audit", AppendOpts::standard()),
            1 => ("/audit/sub", AppendOpts::minimal()),
            _ => ("/txn", AppendOpts::standard()),
        };
        svc.append_path(path, &payload(i, len), opts).unwrap();
        if i % 37 == 36 {
            svc.flush().unwrap();
        }
    }
    svc.flush().unwrap();

    let devices = pool.devices();
    assert_eq!(devices.len(), svc.volumes().volume_count() as usize);
    let volumes = devices
        .iter()
        .enumerate()
        .map(|(i, dev)| {
            let end = dev.query_end().expect("mem devices report their end").0;
            let mut buf = vec![0u8; BLOCK];
            // FNV-1a over the raw media, label block included. (Not a
            // running CRC32: every block ends in its own CRC32, so the
            // running state after a block would not depend on its data.)
            let mut hash = 0xCBF2_9CE4_8422_2325u64;
            for b in 0..end {
                dev.read_block(BlockNo(b), &mut buf).unwrap();
                for &byte in &buf {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            let data_end = svc.volumes().volume(i as u32).unwrap().data_end();
            (hash, data_end)
        })
        .collect();
    Outcome {
        forced_phase_write_ops,
        volumes,
    }
}

fn payload(i: u32, len: usize) -> Vec<u8> {
    let mut p = format!("#{i}:").into_bytes();
    p.resize(len.max(p.len()), b'a' + (i % 26) as u8);
    p
}

#[test]
fn lone_client_reproduces_the_legacy_media_byte_for_byte() {
    let got = run_script();
    assert!(
        got.volumes.len() >= 3,
        "the script must roll over successor volumes, got {}",
        got.volumes.len()
    );
    // The constants come from the deleted pipeline; do not regenerate.
    assert_eq!(got.forced_phase_write_ops, GOLDEN_FORCED_WRITE_OPS);
    assert_eq!(got.volumes, GOLDEN_VOLUMES);
}
