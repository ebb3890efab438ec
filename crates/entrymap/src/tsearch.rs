//! Locating blocks by time.
//!
//! "The server must also be able to efficiently locate the position of
//! those log entries that were written at a given earlier point in time.
//! The server uses a tree search, based on the timestamps in the log entry
//! headers. A header timestamp is mandatory for the first log entry in each
//! block, so the search succeeds to a resolution of at least a single
//! block. At the upper levels of the tree, the search uses those blocks
//! that happen to contain entrymap log entries." (§2.1)
//!
//! Block first-timestamps are non-decreasing (the log is written in time
//! order), so the search is an N-ary descent: at each tree level it binary
//! searches among that level's map blocks — the well-known, regularly
//! spaced blocks most likely to be cached — then descends one level. Total
//! probes are `O(log2 b)`, but concentrated on cache-friendly blocks.

use clio_types::{Result, Timestamp};

use clio_format::BlockView;

use crate::geometry::Geometry;
use crate::source::BlockSource;

/// Operation counts for a timestamp search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TsearchStats {
    /// Blocks read while probing.
    pub blocks_read: u64,
}

/// The first-timestamp of block `db`, skipping leftward over unreadable
/// blocks (whose timestamps are lost, §2.3.2). Returns the block actually
/// probed and its timestamp, or `None` if everything down to `lo` is
/// unreadable.
fn probe<S: BlockSource>(
    src: &S,
    mut db: u64,
    lo: u64,
    stats: &mut TsearchStats,
) -> Result<Option<(u64, Timestamp)>> {
    loop {
        stats.blocks_read += 1;
        let img = src.read(db)?;
        if let Ok(view) = BlockView::parse(&img) {
            return Ok(Some((db, view.first_ts())));
        }
        if db == lo {
            return Ok(None);
        }
        db -= 1;
    }
}

/// Finds the greatest data block whose first entry was written at or before
/// `ts` — the block where a read "prior to" time `ts` begins.
///
/// Returns `None` if `ts` precedes the whole log.
pub fn find_block_by_time<S: BlockSource>(
    src: &S,
    ts: Timestamp,
) -> Result<(Option<u64>, TsearchStats)> {
    let mut stats = TsearchStats::default();
    let end = src.data_end();
    if end == 0 {
        return Ok((None, stats));
    }
    let geo = Geometry::new(src.fanout());

    // Check the very first block: if even it is later than ts, no block
    // qualifies.
    match probe(src, 0, 0, &mut stats)? {
        Some((_, t0)) if t0 > ts => return Ok((None, stats)),
        _ => {}
    }

    // Invariant: first_ts(lo) <= ts (or lo's timestamp is unknowable), and
    // either hi == end or first_ts(hi) > ts. Narrow [lo, hi) by binary
    // search, snapping probes to entrymap map blocks while the range is
    // wide so the upper levels of the search hit well-known blocks.
    let (mut lo, mut hi) = (0u64, end);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        // Snap to the highest map-block multiple inside (lo, hi).
        let mut level = geo.levels_for(end);
        let mut probe_at = mid;
        while level >= 1 {
            let p = geo.period(level);
            let snapped = (mid / p) * p;
            if snapped > lo && snapped < hi {
                probe_at = snapped;
                break;
            }
            level -= 1;
        }
        match probe(src, probe_at, lo + 1, &mut stats)? {
            Some((at, t)) => {
                if t <= ts {
                    lo = at;
                } else {
                    hi = at;
                }
            }
            None => {
                // Everything in (lo, probe_at] is unreadable; the answer
                // cannot be above probe_at.
                hi = lo + 1;
            }
        }
    }
    Ok((Some(lo), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{build_log, BLOCK_TIME_STEP};

    fn uniform_log(n: usize, total: usize) -> crate::source::VecSource {
        let plan: Vec<Vec<u16>> = (0..total).map(|_| vec![8]).collect();
        build_log(n, 512, &plan).0
    }

    #[test]
    fn exact_and_between_times() {
        let src = uniform_log(4, 100);
        // Block db has first_ts db*STEP.
        for (ts, want) in [
            (0, Some(0)),
            (BLOCK_TIME_STEP, Some(1)),
            (BLOCK_TIME_STEP + 1, Some(1)),
            (55 * BLOCK_TIME_STEP - 1, Some(54)),
            (99 * BLOCK_TIME_STEP, Some(99)),
            (10_000 * BLOCK_TIME_STEP, Some(99)),
        ] {
            let (got, _) = find_block_by_time(&src, Timestamp(ts)).unwrap();
            assert_eq!(got, want, "ts={ts}");
        }
    }

    #[test]
    fn before_log_start_is_none() {
        let plan: Vec<Vec<u16>> = (0..10).map(|_| vec![8]).collect();
        // Shift all timestamps by building then asking for time 0 when the
        // first block's first_ts is 0 — so ask for "before everything" on a
        // log whose first block starts later. Easiest: empty log.
        let (src, _) = build_log(4, 512, &[]);
        assert_eq!(find_block_by_time(&src, Timestamp(5)).unwrap().0, None);
        let (src, _) = build_log(4, 512, &plan);
        // first block first_ts == 0, so ts=0 still maps to block 0.
        assert_eq!(find_block_by_time(&src, Timestamp(0)).unwrap().0, Some(0));
    }

    #[test]
    fn cost_is_logarithmic() {
        let src = uniform_log(16, 4096);
        let (got, stats) = find_block_by_time(&src, Timestamp(1234 * BLOCK_TIME_STEP + 7)).unwrap();
        assert_eq!(got, Some(1234));
        assert!(
            stats.blocks_read <= 16,
            "read {} blocks for 4096-block log",
            stats.blocks_read
        );
    }

    #[test]
    fn probes_prefer_map_blocks() {
        // With N=16 and 4096 blocks, early probes should land on multiples
        // of 256 or 16. We verify indirectly: search still correct when
        // only map blocks and the neighbourhood of the answer are readable
        // is too strong; instead check probe count stays small even when
        // the target is near the start (upper probes discard most of the
        // log quickly).
        let src = uniform_log(16, 4096);
        let (got, stats) = find_block_by_time(&src, Timestamp(3)).unwrap();
        assert_eq!(got, Some(0));
        assert!(stats.blocks_read <= 16, "{} reads", stats.blocks_read);
    }

    #[test]
    fn tolerates_unreadable_blocks() {
        let plan: Vec<Vec<u16>> = (0..64).map(|_| vec![8]).collect();
        let (mut srcv, _) = build_log(4, 512, &plan);
        // Destroy a band of blocks in the middle.
        for db in 30..34 {
            srcv.blocks[db] = std::sync::Arc::new(vec![0xFF; 512]);
        }
        let (got, _) = find_block_by_time(&srcv, Timestamp(31 * BLOCK_TIME_STEP)).unwrap();
        // The timestamps of 30..34 are lost; any answer in 29..=31 region
        // that respects the invariant first_ts(ans) <= ts is acceptable —
        // our implementation lands on the nearest readable block at or
        // below.
        let got = got.unwrap();
        assert!((29..=31).contains(&got), "got {got}");
    }
}
