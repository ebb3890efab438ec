//! Replay probes (source c): after the phases, time each layer's public
//! functions directly, on the workload's own crash image and op trace.
//! These are the per-layer numbers that do not depend on how `core` uses
//! the layer, so a change inside one crate moves its probe and nothing else.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use clio_cache::{BlockCache, CacheKey};
use clio_device::{LogDevice, MemWormDevice, SharedDevice};
use clio_entrymap::{rebuild_pending, BlockSource, EntrymapWriter, Geometry, Locator};
use clio_format::{BlockBuilder, BlockView, EntryForm, EntryHeader, PushOutcome, VolumeLabel};
use clio_types::crc::crc32;
use clio_types::{BlockNo, ClioError, LogFileId, Result, Timestamp};
use clio_volume::{MemDevicePool, VolumeSequence};

use crate::gen::{fill_payload, Trace};
use crate::rng::Rng;
use crate::stats::ratio;

/// Data blocks of the image the block-level probes look at, at most.
const BLOCKS_PROBED: usize = 8192;
/// Ops of the trace replayed through `BlockBuilder`, at most.
const OPS_REPLAYED: usize = 50_000;
/// `locate_before` searches, `read_data_block` reads.
const LOOKUPS: usize = 4096;
/// Cache probe: capacity (the service's default) and calls timed.
const CACHE_BLOCKS: usize = 1024;
const CACHE_CALLS: usize = 100_000;

/// The per-layer numbers the probes produce, named as in `BENCHMARK.json`.
pub type ProbeMetrics = Vec<(&'static str, f64)>;

/// One volume's data blocks, shared without copying.
struct ImageSource {
    fanout: usize,
    blocks: Vec<Arc<Vec<u8>>>,
}

impl BlockSource for ImageSource {
    fn fanout(&self) -> usize {
        self.fanout
    }

    fn data_end(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn read(&self, db: u64) -> Result<Arc<Vec<u8>>> {
        self.blocks
            .get(db as usize)
            .cloned()
            .ok_or(ClioError::UnwrittenBlock(BlockNo(db + 1)))
    }
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Reads a medium's label and data blocks (device block `db + 1`).
fn load(dev: &MemWormDevice, limit: usize) -> Result<(VolumeLabel, Vec<Arc<Vec<u8>>>)> {
    let mut buf = vec![0u8; dev.block_size()];
    dev.read_block(BlockNo(0), &mut buf)?;
    let label = VolumeLabel::decode(&buf)?;
    let end = dev.query_end().map_or(0, |b| b.0);
    let mut blocks = Vec::new();
    for b in 1..end.min(limit as u64 + 1) {
        dev.read_block(BlockNo(b), &mut buf)?;
        blocks.push(Arc::new(buf.clone()));
    }
    Ok((label, blocks))
}

/// Runs every probe. `ids[i]` is the log file id of `trace.logs[i]`.
pub fn run(
    image: &[Arc<MemWormDevice>],
    trace: &Trace,
    ids: &[LogFileId],
    block_size: usize,
    fanout: usize,
) -> Result<ProbeMetrics> {
    let mut out = ProbeMetrics::new();

    // The volumes looked at: in pool order, until enough blocks.
    let mut volumes: Vec<ImageSource> = Vec::new();
    let mut budget = BLOCKS_PROBED;
    for dev in image {
        if budget == 0 {
            break;
        }
        let (_, blocks) = load(dev, budget)?;
        budget -= blocks.len();
        volumes.push(ImageSource { fanout, blocks });
    }
    let blocks: Vec<&Arc<Vec<u8>>> = volumes.iter().flat_map(|v| &v.blocks).collect();

    // ---- types: CRC ------------------------------------------------------
    let t = Instant::now();
    let mut acc = 0u32;
    for b in &blocks {
        acc ^= crc32(black_box(&b[..]));
    }
    black_box(acc);
    let kib = blocks.len() as f64 * block_size as f64 / 1024.0;
    out.push(("types.crc32_ns_per_kib", ratio(elapsed_ns(t), kib)));

    // ---- format: parse and iterate ---------------------------------------
    let t = Instant::now();
    let mut parsed = 0usize;
    for b in &blocks {
        parsed += usize::from(BlockView::parse(black_box(&b[..])).is_ok());
    }
    out.push((
        "format.parse_ns_per_block",
        ratio(elapsed_ns(t), blocks.len() as f64),
    ));
    let views: Vec<BlockView<'_>> = blocks
        .iter()
        .filter_map(|b| BlockView::parse(&b[..]).ok())
        .collect();
    debug_assert_eq!(views.len(), parsed);
    let t = Instant::now();
    let mut entries = 0usize;
    for v in &views {
        for e in v.entries() {
            entries += usize::from(black_box(e).is_ok());
        }
    }
    out.push((
        "format.iter_ns_per_entry",
        ratio(elapsed_ns(t), entries as f64),
    ));

    // ---- format: pack and finish -------------------------------------------
    let (pack_ns, packed, finish_ns, finished) = replay_builder(trace, ids, block_size);
    out.push(("format.pack_ns_per_entry", ratio(pack_ns, packed as f64)));
    out.push((
        "format.finish_ns_per_block",
        ratio(finish_ns, finished as f64),
    ));

    // ---- entrymap: writer ------------------------------------------------
    let (mut note_ns, mut noted) = (0.0, 0usize);
    for v in &volumes {
        let per_block: Vec<BTreeSet<LogFileId>> = v
            .blocks
            .iter()
            .map(|b| {
                BlockView::parse(b).map_or_else(
                    |_| BTreeSet::new(),
                    |view| view.entries().flatten().map(|e| e.header.id).collect(),
                )
            })
            .collect();
        let mut w = EntrymapWriter::new(Geometry::new(fanout));
        let t = Instant::now();
        for (db, set) in per_block.iter().enumerate() {
            black_box(w.begin_block(db as u64));
            w.note_block(db as u64, set.iter().copied());
        }
        note_ns += elapsed_ns(t);
        noted += per_block.len();
        black_box(w);
    }
    out.push(("entrymap.note_ns_per_block", ratio(note_ns, noted as f64)));

    // ---- entrymap: rebuild and locate --------------------------------------
    let (mut rebuild_ns, mut rebuild_blocks) = (0.0, 0u64);
    let mut pendings = Vec::new();
    for v in &volumes {
        let t = Instant::now();
        let (pending, stats) = rebuild_pending(v)?;
        rebuild_ns += elapsed_ns(t);
        rebuild_blocks += stats.blocks_read;
        pendings.push(pending);
    }
    out.push(("entrymap.rebuild_ns", rebuild_ns));
    out.push(("entrymap.rebuild_blocks_read", rebuild_blocks as f64));

    let mut rng = Rng::derive(trace.seed, 0x900);
    let searchable: Vec<usize> = (0..volumes.len())
        .filter(|v| !volumes[*v].blocks.is_empty())
        .collect();
    let (mut locate_ns, mut locate_blocks, mut located) = (0.0, 0u64, 0usize);
    if !searchable.is_empty() {
        // Search for the logs the clients append to, from random blocks.
        let targets: BTreeSet<u16> = trace.clients.iter().flatten().map(|op| op.log).collect();
        let targets: Vec<LogFileId> = targets.into_iter().map(|l| ids[usize::from(l)]).collect();
        for _ in 0..LOOKUPS {
            let v = searchable[rng.below(searchable.len() as u64) as usize];
            let id = [targets[rng.below(targets.len() as u64) as usize]];
            let from = rng.below(volumes[v].data_end());
            let mut loc = Locator::new(&volumes[v], Some(&pendings[v]));
            let t = Instant::now();
            black_box(loc.locate_before(&id, from)?);
            locate_ns += elapsed_ns(t);
            locate_blocks += loc.stats.blocks_read;
            located += 1;
        }
    }
    out.push(("entrymap.locate_ns", ratio(locate_ns, located as f64)));
    out.push((
        "entrymap.locate_blocks_read",
        ratio(locate_blocks as f64, located as f64),
    ));

    // ---- cache ---------------------------------------------------------
    let cache = BlockCache::with_shards(CACHE_BLOCKS, 8);
    let block = Arc::new(vec![0u8; block_size]);
    for b in 0..CACHE_BLOCKS as u64 {
        cache.put(CacheKey::new(0, BlockNo(b)), block.clone());
    }
    // Keys still resident after the fill (sharding evicts a few early).
    let resident: Vec<CacheKey> = (0..CACHE_BLOCKS as u64)
        .map(|b| CacheKey::new(0, BlockNo(b)))
        .filter(|k| cache.get(*k).is_some())
        .collect();
    let t = Instant::now();
    let mut hits = 0usize;
    for i in 0..CACHE_CALLS {
        hits += usize::from(black_box(cache.get(resident[i % resident.len()])).is_some());
    }
    out.push(("cache.get_hit_ns", ratio(elapsed_ns(t), hits as f64)));
    let t = Instant::now();
    for i in 0..CACHE_CALLS as u64 {
        cache.put(CacheKey::new(1, BlockNo(i)), block.clone());
    }
    out.push(("cache.put_evict_ns", elapsed_ns(t) / CACHE_CALLS as f64));

    // ---- volume: mount and read ------------------------------------------
    // Regroup the media into their sequences by label, as recovery does.
    let mut groups: BTreeMap<u64, Vec<SharedDevice>> = BTreeMap::new();
    for dev in image {
        let (label, _) = load(dev, 0)?;
        groups
            .entry(label.sequence.0)
            .or_default()
            .push(dev.clone() as SharedDevice);
    }
    let cache = Arc::new(BlockCache::with_shards(CACHE_BLOCKS, 8));
    let spare = Arc::new(MemDevicePool::new(block_size, 2));
    let t = Instant::now();
    let mut sequences = Vec::new();
    for (i, devs) in groups.into_values().enumerate() {
        sequences.push(VolumeSequence::open(
            devs,
            cache.clone(),
            spare.clone(),
            (i as u32) << 20,
        )?);
    }
    out.push(("volume.open_us", elapsed_ns(t) / 1e3));
    let mut vols = Vec::new();
    for s in &sequences {
        for v in 0..s.volume_count() {
            let vol = s.volume(v)?;
            if vol.data_end() > 0 {
                vols.push(vol);
            }
        }
    }
    let (mut read_ns, mut reads) = (0.0, 0usize);
    if !vols.is_empty() {
        let picks: Vec<(usize, u64)> = (0..LOOKUPS)
            .map(|_| {
                let v = rng.below(vols.len() as u64) as usize;
                (v, rng.below(vols[v].data_end()))
            })
            .collect();
        let t = Instant::now();
        for (v, db) in picks {
            black_box(vols[v].read_data_block(db)?);
            reads += 1;
        }
        read_ns = elapsed_ns(t);
    }
    out.push(("volume.read_block_ns", ratio(read_ns, reads as f64)));
    Ok(out)
}

/// Replays the head of client 0's trace through `BlockBuilder`, timing
/// `push` and `finish` apart. Returns `(push ns, pushes, finish ns,
/// finishes)`.
fn replay_builder(trace: &Trace, ids: &[LogFileId], block_size: usize) -> (f64, usize, f64, usize) {
    let ops = &trace.clients[0];
    let ops = &ops[..ops.len().min(OPS_REPLAYED)];
    let ts = Timestamp::from_secs(1);
    let mut builder = BlockBuilder::new(block_size, ts);
    let (mut pack_ns, mut packed, mut finish_ns, mut finished) = (0.0, 0usize, 0.0, 0usize);
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    // Payloads are generated a chunk ahead, outside the timed loops.
    for (chunk_no, chunk) in ops.chunks(256).enumerate() {
        payloads.resize_with(chunk.len(), Vec::new);
        for (k, op) in chunk.iter().enumerate() {
            fill_payload(
                trace.seed,
                0,
                chunk_no * 256 + k,
                usize::from(op.size),
                &mut payloads[k],
            );
        }
        let t = Instant::now();
        let mut finish_in_chunk = 0.0;
        for (op, payload) in chunk.iter().zip(&payloads) {
            let header = EntryHeader::new(
                ids[usize::from(op.log)],
                EntryForm::Timestamped,
                Some(ts),
                None,
            );
            if let PushOutcome::NoSpace { .. } = builder.push(&header, payload) {
                let tf = Instant::now();
                black_box(builder.finish());
                finish_in_chunk += elapsed_ns(tf);
                finished += 1;
                builder = BlockBuilder::new(block_size, ts);
                black_box(builder.push(&header, payload));
            }
            packed += 1;
        }
        pack_ns += elapsed_ns(t) - finish_in_chunk;
        finish_ns += finish_in_chunk;
    }
    (pack_ns, packed, finish_ns, finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Sizing, Workload};
    use crate::scenario::{run_rep, RepOptions};

    #[test]
    fn probes_run_on_a_real_crash_image_and_name_every_metric_once() {
        let _serial = crate::span::test_lock();
        let w = Workload::MultilogSparse;
        let sizing = Sizing {
            appends_per_client: 3_000,
            random_reads: 100,
            volume_blocks: 512,
        };
        let rep = run_rep(
            w,
            3,
            sizing,
            RepOptions {
                traced: false,
                trace_events: 512,
                append_only: true,
            },
        )
        .expect("rep");
        let trace = Trace::generate(w, 3, sizing);
        let m = run(&rep.image, &trace, &rep.ids, 1024, 16).expect("probes");
        let names: BTreeSet<&str> = m.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), m.len());
        for (name, value) in &m {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        assert!(names.contains("entrymap.locate_blocks_read"));
    }
}
