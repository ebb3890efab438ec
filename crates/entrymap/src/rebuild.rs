//! Reconstructing entrymap pending state after a crash.
//!
//! On reboot "the server then examines recently-written blocks, to
//! reconstruct missing 'entrymap' information (that is, bitmap information
//! for entrymap log entries that had still to be written at the time of the
//! crash)" (§2.3.1). §3.4 analyzes the cost: level-1 information comes from
//! scanning the up-to-`N` blocks since the last level-1 map; level-`i`
//! information comes from the up-to-`N` level-`(i-1)` maps since the last
//! level-`i` map — in total up to `N·log_N b` block examinations, about
//! half that on average (Figure 4).

use clio_types::{LogFileId, Result, SmallBitmap};

use clio_format::BlockView;

use crate::chain;
use crate::geometry::Geometry;
use crate::pending::PendingMaps;
use crate::source::BlockSource;

/// Operation counts for a rebuild, for the Figure 4 harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebuildStats {
    /// Device block reads issued (raw; a block cache would deduplicate the
    /// overlap between levels).
    pub blocks_read: u64,
    /// Distinct blocks examined.
    pub distinct_blocks: u64,
}

/// Everything a rebuild learned, including which blocks failed to parse —
/// recovery invalidates those (§2.3.2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RebuildFindings {
    /// Blocks that were neither parseable nor already invalidated.
    pub corrupt: Vec<u64>,
    /// Blocks found already invalidated (all 1s).
    pub invalidated: Vec<u64>,
}

/// Rebuilds [`PendingMaps`] equivalent to the state a never-crashed writer
/// would hold after `src.data_end()` blocks.
pub fn rebuild_pending<S: BlockSource>(src: &S) -> Result<(PendingMaps, RebuildStats)> {
    let (pending, stats, _) = rebuild_pending_with_findings(src)?;
    Ok((pending, stats))
}

/// Like [`rebuild_pending`], also reporting the corrupt and invalidated
/// blocks encountered so recovery can act on them (§2.3.2).
pub fn rebuild_pending_with_findings<S: BlockSource>(
    src: &S,
) -> Result<(PendingMaps, RebuildStats, RebuildFindings)> {
    let geo = Geometry::new(src.fanout());
    let end = src.data_end();
    let mut pending = PendingMaps::new(geo);
    let mut stats = RebuildStats::default();
    let mut findings = RebuildFindings::default();
    let mut seen = std::collections::BTreeSet::new();
    if end == 0 {
        return Ok((pending, stats, findings));
    }
    let n = geo.fanout();
    let levels = geo.levels_for(end);

    // The writer rolls a level's group when it *opens* the block at the
    // boundary; block `end` has not been opened, so the current group at
    // level `l` is (end-1)/N^l, and a sub-group whose map would be emitted
    // exactly at block `end` is still held in pending state one level down.
    let g1 = geo.group_of(1, end - 1);
    pending.roll(1, g1);
    for db in geo.group_start(1, g1)..end {
        stats.blocks_read += 1;
        seen.insert(db);
        let img = src.read(db)?;
        let view = match BlockView::parse(&img) {
            Ok(v) => v,
            Err(clio_types::ClioError::InvalidatedBlock(_)) => {
                findings.invalidated.push(db);
                continue;
            }
            Err(_) => {
                findings.corrupt.push(db);
                continue; // unreadable blocks contribute nothing
            }
        };
        for e in view.entries() {
            let Ok(e) = e else { break };
            if e.header.id.is_entrymapped() {
                pending.set_bit(1, e.header.id, (db % n) as usize);
            }
        }
    }

    // Levels 2..: read the level-(l-1) maps of the completed sub-groups of
    // the current level-l group.
    for level in 2..=levels {
        let gl = geo.group_of(level, end - 1);
        pending.roll(level, gl);
        let first_sub = gl * n;
        // Sub-groups whose maps have actually been emitted: the map for
        // sub-group k is written when block (k+1)·N^(level-1) opens, which
        // has happened only for blocks <= end-1.
        let complete_subs = geo.group_of(level - 1, end - 1);
        for sub in first_sub..complete_subs {
            let map_block = geo.map_block(level - 1, sub);
            debug_assert!(map_block <= end);
            // Bits set from the pieces of a chain that then turns out
            // unreadable stay set: each is a fact the writer recorded (a
            // bit for entries lost since costs a search one descent, never
            // an answer), and the scan below only adds to them.
            let walk =
                chain::read_map(src, geo, (level - 1, sub), &mut stats.blocks_read, |rec| {
                    for (id, bytes) in rec.maps() {
                        if SmallBitmap::any_in(usize::from(rec.bits), bytes) {
                            pending.set_bit(level, id, (sub % n) as usize);
                        }
                    }
                })?;
            if walk.complete_at.is_none() {
                // Map destroyed: recompute the sub-group's contribution the
                // hard way, by scanning its blocks.
                let start = geo.group_start(level - 1, sub);
                let stop = geo.group_start(level - 1, sub + 1).min(end);
                let ids = scan_ids(src, start, stop, &mut stats)?;
                for id in ids {
                    pending.set_bit(level, id, (sub % n) as usize);
                }
            }
            seen.insert(map_block.min(end.saturating_sub(1)));
        }
    }
    stats.distinct_blocks = seen.len() as u64;
    Ok((pending, stats, findings))
}

/// The set of entrymapped ids with entries in blocks `[start, stop)`.
fn scan_ids<S: BlockSource>(
    src: &S,
    start: u64,
    stop: u64,
    stats: &mut RebuildStats,
) -> Result<std::collections::BTreeSet<LogFileId>> {
    let mut ids = std::collections::BTreeSet::new();
    for db in start..stop {
        stats.blocks_read += 1;
        let img = src.read(db)?;
        let Ok(view) = BlockView::parse(&img) else {
            continue;
        };
        for e in view.entries() {
            let Ok(e) = e else { break };
            if e.header.id.is_entrymapped() {
                ids.insert(e.header.id);
            }
        }
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::build_log;

    fn random_plan(seed: u64, total: usize, files: &[u16], density: f64) -> Vec<Vec<u16>> {
        use clio_testkit::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..total)
            .map(|_| {
                files
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(density))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rebuild_equals_live_writer_state() {
        for n in [2usize, 4, 16] {
            for total in [0usize, 1, 5, 16, 17, 64, 100, 257, 300] {
                let plan = random_plan(n as u64 * 1000 + total as u64, total, &[8, 9, 10], 0.2);
                let (src, live) = build_log(n, 1024, &plan);
                let (rebuilt, _) = rebuild_pending(&src).unwrap();
                // The rebuilt state must answer every union query the live
                // state answers, identically, at every level and for every
                // tracked group.
                let geo = Geometry::new(n);
                let end = total as u64;
                for level in 1..=geo.levels_for(end.max(1)) {
                    let group = geo.group_of(level, end.saturating_sub(1));
                    for id in [8u16, 9, 10] {
                        let ids = [clio_types::LogFileId(id)];
                        assert_eq!(
                            rebuilt.union_for(level, group, &ids),
                            live.union_for(level, group, &ids),
                            "n={n} total={total} level={level} id={id}"
                        );
                        // Non-current groups are unanswerable by both.
                        assert_eq!(
                            rebuilt.union_for(level, group + 1, &ids),
                            live.union_for(level, group + 1, &ids),
                            "n={n} total={total} level={level} id={id} (next group)"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rebuild_cost_is_bounded_by_n_log_b() {
        let n = 16usize;
        let total = 3000; // crosses into level 3
        let plan = random_plan(7, total, &[8, 9], 0.3);
        let (src, _) = build_log(n, 1024, &plan);
        let (_, stats) = rebuild_pending(&src).unwrap();
        // §3.4: at most N·log_N(b) blocks; b = 3000, log_16(3000) < 3.
        let bound = (n as u64) * 3;
        assert!(
            stats.blocks_read <= bound,
            "read {} blocks, bound {bound}",
            stats.blocks_read
        );
    }

    #[test]
    fn rebuild_of_empty_log() {
        let (src, live) = build_log(4, 512, &[]);
        let (rebuilt, stats) = rebuild_pending(&src).unwrap();
        assert_eq!(rebuilt, live);
        assert_eq!(stats.blocks_read, 0);
    }
}
