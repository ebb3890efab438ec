//! Server initialization and crash recovery (§2.3.1, §3.4).
//!
//! "If a file server crashes, we assume that the contents of its RAM memory
//! are lost. On reboot, the log service, for each mounted volume, must
//! reconstruct its cached knowledge of the log files that are maintained on
//! this volume." The three steps:
//!
//! 1. locate the most recently written block (device query or binary
//!    search) — done by the volume layer at mount;
//! 2. examine recently-written blocks to reconstruct missing entrymap
//!    information — [`clio_entrymap::rebuild`]; corrupt blocks discovered
//!    here are invalidated (§2.3.2);
//! 3. read the catalog log file to rebuild the log-file descriptors. It
//!    is an ordinary log file (§2.2) and is read as one, through the
//!    service's one log reader ([`VolSource`]). Each successor volume
//!    starts with a catalog checkpoint, so the walk goes newest volume
//!    first and stops at the first one that holds a checkpoint.
//!
//! # Sharding
//!
//! The surviving devices are regrouped into their append domains by the
//! volume labels: every device of one shard's volume sequence carries that
//! sequence's id, and the service created shard `i` on sequence `base + i`,
//! so grouping by sequence id and sorting ascending reproduces the shard
//! layout with no external metadata. Steps 1 and 2 then run per shard.
//! Step 3 runs only on shard 0, the catalog shard: it holds the service's
//! one catalog and the only catalog log, and the other shards hold no
//! catalog at all. The per-shard findings are joined into one
//! [`RecoveryReport`] with shard-globalized volume indexes.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use clio_cache::BlockCache;
use clio_device::SharedDevice;
use clio_entrymap::{rebuild_pending_with_findings, PendingMaps};
use clio_format::records::CatalogRecord;
use clio_format::VolumeLabel;
use clio_types::{BlockNo, Clock, LogFileId, Result};
use clio_volume::{DevicePool, VolumeSequence};

use crate::catalog::Catalog;
use crate::config::ServiceConfig;
use crate::read::VolSource;
use crate::service::{
    LogService, Shard, ShardSeed, DEVICE_ID_SHIFT, LOCAL_VOLUME_MASK, SHARD_SHIFT,
};

/// What recovery did, for reporting and the Figure 4 harness. Joined
/// across shards: counters are sums, volume indexes in `invalidated` are
/// shard-globalized (shard in the high bits, like `EntryAddr`). The five
/// phase timings meet at shared clock readings, so they add up to
/// `total_us`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Volumes mounted, across all shards.
    pub volumes: u32,
    /// `is_written` probes spent locating ends (0 with direct end query).
    pub end_probes: u64,
    /// Blocks examined to reconstruct entrymap information (§3.4 step 2).
    pub rebuild_blocks_read: u64,
    /// Corrupt blocks invalidated, as (globalized volume index, data block).
    pub invalidated: Vec<(u32, u64)>,
    /// Catalog records replayed (§3.4 step 3; catalog shard only).
    pub catalog_records: u64,
    /// Wall-clock µs spent before the medium is read: the service's
    /// observability, device instrumentation, and the block cache.
    pub setup_us: u64,
    /// Wall-clock µs spent reading volume labels, mounting volumes and
    /// locating written ends (§3.4 step 1).
    pub end_locate_us: u64,
    /// Wall-clock µs spent rebuilding entrymap pending state (step 2).
    pub rebuild_us: u64,
    /// Wall-clock µs spent collecting and replaying the catalog (step 3).
    pub catalog_us: u64,
    /// Wall-clock µs spent assembling the shards around what was rebuilt.
    pub assemble_us: u64,
    /// Wall-clock µs for the whole recovery: the sum of the five phases.
    pub total_us: u64,
}

impl LogService {
    /// Recovers a service from the surviving devices of its volume
    /// sequences (any order, any mix of shards). The shard count is read
    /// back from the media — `cfg.shards` is ignored here.
    pub fn recover(
        devices: Vec<SharedDevice>,
        pool: Arc<dyn DevicePool>,
        cfg: ServiceConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<(LogService, RecoveryReport)> {
        let recover_start = clio_obs::clock::read();
        // The shard count is read back from the media; every other field
        // is checked before the cache is sized from it.
        let mut cfg = cfg;
        cfg.shards = 1;
        cfg.validate()?;
        let obs = crate::obs::ServiceObs::new(cfg.trace_events);
        let mut recover_span = obs.span_at("recover", recover_start);
        let setup_span = obs.span_at("setup", recover_start);
        let devices: Vec<SharedDevice> = devices
            .into_iter()
            .map(|d| obs.instrument_device(d))
            .collect();
        let pool = Arc::new(crate::obs::InstrumentingPool::new(pool, obs.clone()));
        let cache = Arc::new(BlockCache::with_shards(cfg.cache_blocks, cfg.cache_shards));
        obs.attach_cache(&cache);
        let set_up = clio_obs::clock::read();
        let setup_us = phase_us(setup_span.close_at(set_up));

        // Step 1: regroup the devices into their shards' volume sequences
        // by label, then mount each sequence (which locates written ends).
        let locate_span = obs.span_at("end_locate", set_up);
        let mut groups: BTreeMap<u64, Vec<SharedDevice>> = BTreeMap::new();
        for dev in devices {
            let mut buf = vec![0u8; dev.block_size()];
            dev.read_block(BlockNo(0), &mut buf)?;
            let label = VolumeLabel::decode(&buf)?;
            groups.entry(label.sequence.0).or_default().push(dev);
        }
        cfg.shards = groups.len().max(1);
        cfg.validate()?;
        let mut seqs: Vec<Arc<VolumeSequence>> = Vec::with_capacity(groups.len());
        for (i, devs) in groups.into_values().enumerate() {
            seqs.push(Arc::new(VolumeSequence::open(
                devs,
                cache.clone(),
                pool.clone(),
                (i as u32) << DEVICE_ID_SHIFT,
            )?));
        }
        let located = clio_obs::clock::read();
        let end_locate_us = phase_us(locate_span.close_at(located));
        // Geometry is defined by the volume labels, not the passed config.
        cfg.block_size = seqs[0].block_size();
        cfg.fanout = seqs[0].fanout();
        let fanout = usize::from(cfg.fanout);

        let mut report = RecoveryReport {
            volumes: seqs.iter().map(|s| s.volume_count()).sum(),
            setup_us,
            end_locate_us,
            ..RecoveryReport::default()
        };

        // Step 2: rebuild entrymap pending state per volume of every
        // shard, invalidating corrupt blocks as they are discovered.
        let rebuild_span = obs.span_at("rebuild", located);
        // Recovery's device loads belong to no read operation.
        let loads = Cell::new(0);
        let mut shard_pendings: Vec<Vec<PendingMaps>> = Vec::with_capacity(seqs.len());
        for (idx, seq) in seqs.iter().enumerate() {
            let mut pendings: Vec<PendingMaps> = Vec::new();
            for v in 0..seq.volume_count() {
                let vol = seq.volume(v)?;
                report.end_probes += vol.end_probes();
                let src = VolSource::bare(&vol, v, fanout, None, &loads);
                let (pending, stats, findings) = rebuild_pending_with_findings(&src)?;
                report.rebuild_blocks_read += stats.blocks_read;
                for db in findings.corrupt {
                    vol.invalidate_data_block(db)?;
                    report
                        .invalidated
                        .push((((idx as u32) << SHARD_SHIFT) | v, db));
                }
                pendings.push(pending);
            }
            shard_pendings.push(pendings);
        }
        let rebuilt = clio_obs::clock::read();
        report.rebuild_us = phase_us(rebuild_span.close_at(rebuilt));

        // Step 3: read the catalog log file on the catalog shard (the only
        // durable catalog log), newest volume first, back to the first
        // volume that holds a checkpoint, and replay from there forward.
        // That is the newest volume unless the crash tore its checkpoint
        // (a volume switch buffers it; it is durable with the volume's
        // first commit): such a volume holds no catalog record at all, and
        // its predecessor's checkpoint and records are the catalog.
        let catalog_span = obs.span_at("catalog", rebuilt);
        let mut replay: Vec<CatalogRecord> = Vec::new();
        for v in (0..seqs[0].volume_count()).rev() {
            let vol = seqs[0].volume(v)?;
            let pending = shard_pendings[0].get(v as usize);
            let src = VolSource::bare(&vol, v, fanout, pending, &loads);
            let mut recs = Vec::new();
            src.for_each_entry(&[LogFileId::CATALOG], |e| {
                if let Ok(rec) = CatalogRecord::decode(&e.data) {
                    recs.push(rec);
                }
            })?;
            let checkpointed = recs
                .iter()
                .any(|r| matches!(r, CatalogRecord::Checkpoint { .. }));
            recs.append(&mut replay);
            replay = recs;
            if checkpointed {
                break;
            }
        }
        let mut catalog = Catalog::new();
        for rec in &replay {
            catalog.apply(rec)?;
        }
        report.catalog_records = replay.len() as u64;
        let replayed = clio_obs::clock::read();
        report.catalog_us = phase_us(catalog_span.close_at(replayed));

        // Join: assemble every shard. The first, the catalog shard, takes
        // the replayed catalog.
        let assemble_span = obs.span_at("assemble", replayed);
        let mut catalog = Some(catalog);
        let mut shards: Vec<Arc<Shard>> = Vec::with_capacity(seqs.len());
        for (idx, seq) in seqs.iter().enumerate() {
            let mut pendings = std::mem::take(&mut shard_pendings[idx]);
            let active_pending = pendings.pop();
            let shard = Arc::new(Shard::assemble(
                idx as u32,
                seq.clone(),
                cfg.clone(),
                clock.clone(),
                obs.clone(),
                ShardSeed {
                    catalog: catalog.take(),
                    sealed_pendings: pendings,
                    active_pending,
                },
            ));
            // Queue bad-block records for invalidated blocks on this
            // shard's active volume; older volumes are closed and their
            // losses only reported.
            {
                let mut st = shard.state.lock();
                let active = st.active_index;
                for (gv, db) in &report.invalidated {
                    if (gv >> SHARD_SHIFT) as usize == idx && gv & LOCAL_VOLUME_MASK == active {
                        st.pending_badblocks.push(*db);
                    }
                }
            }
            shards.push(shard);
        }

        let assembled = clio_obs::clock::read();
        report.assemble_us = phase_us(assemble_span.close_at(assembled));

        recover_span.attr("volumes", u64::from(report.volumes));
        recover_span.attr("shards", shards.len() as u64);
        recover_span.attr("blocks_read", report.rebuild_blocks_read);
        // Phases are floored to 1µs each; keep `sum of phases <= total`
        // invariant even when the clock granularity swallows a phase.
        let phases = report.setup_us
            + report.end_locate_us
            + report.rebuild_us
            + report.catalog_us
            + report.assemble_us;
        report.total_us = phase_us(recover_span.close_at(assembled)).max(phases);
        obs.publish_recovery(&report);
        let svc = LogService { shards, cfg, obs };
        Ok((svc, report))
    }
}

/// A phase's duration in µs, at least 1 so phase timings are visibly
/// populated even when a phase completes within the clock granularity.
fn phase_us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1)
}
