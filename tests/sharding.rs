//! Whole-stack exercises of the sharded append domains: routing, global
//! addressing, cross-shard batches, and per-shard recovery joined into
//! one report.

use std::sync::Arc;

use clio::core::service::{AppendOpts, LogService};
use clio::core::ServiceConfig;
use clio::types::{ManualClock, Timestamp, VolumeSeqId};
use clio::volume::{MemDevicePool, RecordingPool};

const SHARDS: usize = 4;
const LOGS: usize = 8;

fn pool(block_size: usize, cap: u64) -> Arc<RecordingPool> {
    Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(
        block_size, cap,
    ))))
}

fn clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)))
}

fn cfg() -> ServiceConfig {
    ServiceConfig {
        block_size: 512,
        fanout: 4,
        shards: SHARDS,
        ..ServiceConfig::default()
    }
}

fn path(t: usize) -> String {
    format!("/s{t}")
}

#[test]
fn appends_route_across_all_shards_and_read_back() {
    let svc = LogService::create(VolumeSeqId(21), pool(512, 1 << 14), cfg(), clock()).unwrap();
    let mut ids = Vec::new();
    for t in 0..LOGS {
        ids.push(svc.create_log(&path(t)).unwrap());
    }
    // Consecutive top-level ids round-robin over the domains; all four
    // must be in play.
    let shards: std::collections::BTreeSet<u32> = ids.iter().map(|&id| svc.shard_of(id)).collect();
    assert_eq!(shards.len(), SHARDS, "logs must cover every shard");

    let mut receipts = Vec::new();
    for i in 0..30 {
        for (t, &id) in ids.iter().enumerate() {
            let r = svc
                .append(
                    id,
                    format!("log{t} entry{i}").as_bytes(),
                    AppendOpts::standard(),
                )
                .unwrap();
            // The receipt address is global: its high volume-index bits
            // name the owning shard.
            assert_eq!(r.addr.volume_index >> 24, svc.shard_of(id));
            receipts.push((t, i, r));
        }
    }
    svc.flush().unwrap();
    // Random-access reads resolve through the global address back to the
    // right shard.
    for (t, i, r) in &receipts {
        let e = svc.read_entry(r.addr).unwrap();
        assert_eq!(e.data, format!("log{t} entry{i}").as_bytes());
    }
    // Per-log cursors see their own entries only, in order.
    for (t, _) in ids.iter().enumerate() {
        let mut cur = svc.cursor(&path(t)).unwrap();
        let entries = cur.collect_remaining().unwrap();
        assert_eq!(entries.len(), 30, "log {t}");
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.data, format!("log{t} entry{i}").as_bytes());
        }
    }
}

#[test]
fn cross_shard_batch_lands_every_item() {
    let svc = LogService::create(VolumeSeqId(22), pool(512, 1 << 14), cfg(), clock()).unwrap();
    for t in 0..LOGS {
        svc.create_log(&path(t)).unwrap();
    }
    let items: Vec<(String, Vec<u8>)> = (0..LOGS * 3)
        .map(|k| (path(k % LOGS), format!("batch item {k}").into_bytes()))
        .collect();
    let receipts = svc.append_batch(&items, AppendOpts::forced()).unwrap();
    assert_eq!(receipts.len(), items.len());
    // Receipts come back in item order, each readable at its global
    // address, and per-log receipt addresses are strictly increasing.
    let mut last: std::collections::BTreeMap<String, _> = std::collections::BTreeMap::new();
    for ((p, data), r) in items.iter().zip(&receipts) {
        assert_eq!(svc.read_entry(r.addr).unwrap().data, *data);
        if let Some(prev) = last.insert(p.clone(), r.addr) {
            assert!(r.addr > prev, "receipts regressed within {p}");
        }
    }
}

#[test]
fn crash_recovery_joins_all_shards_into_one_report() {
    let pool = pool(512, 96);
    let ck = clock();
    let cfg = cfg();
    let forced_per_log = 6usize;
    {
        let svc =
            LogService::create(VolumeSeqId(23), pool.clone(), cfg.clone(), ck.clone()).unwrap();
        for t in 0..LOGS {
            svc.create_log(&path(t)).unwrap();
        }
        for i in 0..forced_per_log {
            for t in 0..LOGS {
                let mut payload = format!("durable {t}/{i} ").into_bytes();
                payload.resize(120, b'd');
                svc.append_path(&path(t), &payload, AppendOpts::forced())
                    .unwrap();
            }
        }
        // Crash: no flush, no shutdown.
    }
    let (svc, report) =
        LogService::recover(pool.devices(), pool.clone(), cfg.clone(), ck.clone()).unwrap();
    // One joined report covering every shard's volumes (each domain has
    // at least its own active volume).
    assert!(
        report.volumes >= SHARDS as u32,
        "expected >= {SHARDS} volumes, got {}",
        report.volumes
    );
    assert_eq!(
        svc.shard_count(),
        SHARDS,
        "shard count recovered from media"
    );
    for t in 0..LOGS {
        let mut cur = svc.cursor(&path(t)).unwrap();
        let entries = cur.collect_remaining().unwrap();
        assert_eq!(entries.len(), forced_per_log, "log {t} lost forced entries");
        for (i, e) in entries.iter().enumerate() {
            assert!(
                e.data.starts_with(format!("durable {t}/{i} ").as_bytes()),
                "log {t} entry {i} corrupted"
            );
        }
    }
    // The recovered service keeps appending on every shard.
    for t in 0..LOGS {
        svc.append_path(&path(t), b"after recovery", AppendOpts::forced())
            .unwrap();
        let mut cur = svc.cursor(&path(t)).unwrap();
        assert_eq!(cur.collect_remaining().unwrap().len(), forced_per_log + 1);
    }
}

/// A log file is appendable on its shard as soon as `resolve` finds it:
/// every shard checks appends against the catalog snapshot the operation
/// resolved with, so there is no window in which the routed shard has not
/// heard of a log the catalog already names.
#[test]
fn regression_a_resolved_log_is_appendable_on_every_shard() {
    const CREATES: usize = 600;
    let svc =
        Arc::new(LogService::create(VolumeSeqId(25), pool(512, 1 << 14), cfg(), clock()).unwrap());
    let creator = {
        let svc = svc.clone();
        std::thread::spawn(move || {
            for i in 0..CREATES {
                svc.create_log(&format!("/r{i}")).unwrap();
            }
        })
    };
    let mut shards = std::collections::BTreeSet::new();
    for i in 0..CREATES {
        let path = format!("/r{i}");
        let id = loop {
            match svc.resolve(&path) {
                Ok(id) => break id,
                Err(_) => std::hint::spin_loop(),
            }
        };
        shards.insert(svc.shard_of(id));
        if let Err(e) = svc.append(id, b"first", AppendOpts::standard()) {
            panic!("{path} resolved but its append failed: {e}");
        }
    }
    creator.join().unwrap();
    assert_eq!(shards.len(), SHARDS, "the logs must land on every shard");
}

/// Only the catalog shard logs the catalog: when the other shards switch
/// volume they write no catalog checkpoint (nothing would read it), and
/// the catalog shard opens each successor volume with exactly one.
#[test]
fn non_catalog_shards_write_no_catalog_record() {
    use clio::format::records::CatalogRecord;
    use clio::format::{BlockView, VolumeLabel};
    use clio::types::{BlockNo, LogFileId};

    const BASE: u64 = 26;
    let pool = pool(512, 48);
    let svc = LogService::create(VolumeSeqId(BASE), pool.clone(), cfg(), clock()).unwrap();
    for t in 0..LOGS {
        svc.create_log(&path(t)).unwrap();
    }
    for i in 0..150 {
        for t in 0..LOGS {
            let mut payload = format!("{t}/{i} ").into_bytes();
            payload.resize(100, b'v');
            svc.append_path(&path(t), &payload, AppendOpts::standard())
                .unwrap();
        }
    }
    svc.flush().unwrap();

    // Per shard, per volume index: (catalog entries, checkpoints).
    let mut found = std::collections::BTreeMap::new();
    for dev in pool.devices() {
        let mut buf = vec![0u8; dev.block_size()];
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        let label = VolumeLabel::decode(&buf).unwrap();
        let shard = label.sequence.0 - BASE;
        let counts: &mut (u32, u32) = found.entry((shard, label.volume_index)).or_default();
        let end = dev.query_end().map_or(0, |b| b.0);
        for b in 1..end {
            dev.read_block(BlockNo(b), &mut buf).unwrap();
            for e in BlockView::parse(&buf).unwrap().entries() {
                let e = e.unwrap();
                if e.header.id == LogFileId::CATALOG {
                    counts.0 += 1;
                    if let Ok(CatalogRecord::Checkpoint { .. }) = CatalogRecord::decode(e.payload) {
                        counts.1 += 1;
                    }
                }
            }
        }
    }
    for shard in 0..SHARDS as u64 {
        let volumes = found.keys().filter(|(s, _)| *s == shard).count();
        assert!(volumes >= 2, "shard {shard} never switched volume");
    }
    for (&(shard, volume), &(records, checkpoints)) in &found {
        if shard == 0 {
            let expect = u32::from(volume > 0);
            assert_eq!(checkpoints, expect, "shard 0 volume {volume}");
        } else {
            assert_eq!(records, 0, "shard {shard} volume {volume} logs the catalog");
        }
    }
    // Shard 0's first volume holds the creations themselves.
    assert_eq!(found[&(0, 0)].0, LOGS as u32);
}

#[test]
fn single_shard_config_stays_legacy_shaped() {
    // shards=1 must behave exactly like the pre-sharding service: local
    // addresses (no shard bits) and one volume stream.
    let cfg = ServiceConfig { shards: 1, ..cfg() };
    let svc = LogService::create(VolumeSeqId(24), pool(512, 1 << 14), cfg, clock()).unwrap();
    let id = svc.create_log("/only").unwrap();
    assert_eq!(svc.shard_of(id), 0);
    let r = svc.append(id, b"entry", AppendOpts::forced()).unwrap();
    assert_eq!(r.addr.volume_index >> 24, 0);
    assert_eq!(svc.shard_count(), 1);
    assert_eq!(svc.read_entry(r.addr).unwrap().data, b"entry");
}
