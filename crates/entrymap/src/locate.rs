//! Searching the entrymap tree.
//!
//! [`Locator::locate_before`] finds the nearest block at or before a
//! starting point that contains entries of a given set of log files (a set,
//! because reading a log file includes its sublogs); `locate_at_or_after`
//! is the forward mirror. Both climb the entrymap tree from the starting
//! block and descend into the nearest marked subtree, examining about
//! `2·log_N d` entrymap entries to cover a distance of `d` blocks
//! (§3.3.1) — each block read along the way is counted in
//! [`LocateStats`], which is what Table 1 and Figure 3 report.
//!
//! The locator tolerates the §2.3.2 failure modes: an invalidated or
//! corrupt map block is skipped and the map is looked for in the next few
//! blocks (displaced maps); if no map can be found at all, the search
//! "simply assumes that no such entrymap entry is present, at the cost of
//! some additional searching of the lower levels of the tree" — the
//! fallback path here.

use clio_types::{LogFileId, Result, SmallBitmap};

use clio_format::ParsedBlock;

use crate::chain;
use crate::geometry::Geometry;
use crate::pending::PendingMaps;
use crate::source::BlockSource;

/// Operation counts accumulated by a [`Locator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocateStats {
    /// Device/cache block reads issued.
    pub blocks_read: u64,
    /// Entrymap log entries consulted (Table 1's "# of entrymap log
    /// entries read"): read from a block, or answered by the pending
    /// state. A [`MapMemo`] answer is not one of these.
    pub map_entries_examined: u64,
    /// Maps answered by the caller's [`MapMemo`], with nothing read.
    pub memo_hits: u64,
    /// Times the search had to proceed without a map (missing or
    /// destroyed) and scan the level below instead.
    pub fallbacks: u64,
    /// Highest tree level the search climbed to (0 for searches that never
    /// ran; a direct hit in the starting group reports 1). The
    /// distribution of this value over a workload is the tree-descent
    /// depth the §3.3.1 cost model predicts as `log_N d`.
    pub max_level: u64,
}

/// The maps a caller has already read, kept between searches: for each tree
/// level, the union bitmap of the last complete map read there.
///
/// A memo answers for **one volume and one fixed id set** — its owner
/// clears it when either changes. What makes a remembered answer equal to
/// reading the map again is the medium: a map record sits in blocks that
/// are written once, so the locator fills the memo only from records whose
/// every block lies below the owner's finality boundary
/// ([`Locator::with_memo`]), and never from [`PendingMaps`] (the tail's
/// maps still change), from a chain it could not read to its end, or from
/// a fallback scan.
#[derive(Debug, Default)]
pub struct MapMemo {
    /// `levels[l - 1]`: the group of the level-`l` map held, and its union.
    levels: Vec<Option<(u64, SmallBitmap)>>,
}

impl MapMemo {
    /// Forgets every answer (the volume or the id set changed).
    pub fn clear(&mut self) {
        self.levels.clear();
    }

    fn get(&self, level: u8, group: u64) -> Option<&SmallBitmap> {
        match self.levels.get(usize::from(level) - 1)? {
            Some((g, bm)) if *g == group => Some(bm),
            _ => None,
        }
    }

    fn put(&mut self, level: u8, group: u64, bm: &SmallBitmap) {
        let idx = usize::from(level) - 1;
        if self.levels.len() <= idx {
            self.levels.resize(idx + 1, None);
        }
        self.levels[idx] = Some((group, bm.clone()));
    }
}

/// A search over one volume's entrymap tree.
pub struct Locator<'a, S: BlockSource> {
    src: &'a S,
    pending: Option<&'a PendingMaps>,
    geo: Geometry,
    /// The caller's memo, and the first block whose bytes may still change.
    memo: Option<(&'a mut MapMemo, u64)>,
    /// The verified block the last search answered with.
    found: Option<ParsedBlock>,
    /// Accumulated operation counts.
    pub stats: LocateStats,
}

impl<'a, S: BlockSource> Locator<'a, S> {
    /// Creates a locator; `pending` supplies the in-memory bitmaps for the
    /// unmapped tail (pass `None` to force tail fallback scans, as when
    /// measuring cold recovery behaviour).
    pub fn new(src: &'a S, pending: Option<&'a PendingMaps>) -> Locator<'a, S> {
        Locator {
            geo: Geometry::new(src.fanout()),
            src,
            pending,
            memo: None,
            found: None,
            stats: LocateStats::default(),
        }
    }

    /// Lets the searches answer from, and add to, the maps `memo` holds.
    /// Blocks `[0, final_end)` of the source are final — neither their
    /// bytes nor their placement can change any more — and only a map read
    /// entirely from those is remembered. The memo must have been filled
    /// over this same volume, and every search must ask for the same ids.
    #[must_use]
    pub fn with_memo(mut self, memo: &'a mut MapMemo, final_end: u64) -> Locator<'a, S> {
        self.memo = Some((memo, final_end));
        self
    }

    /// The verified image of the block the last search returned (`None`
    /// once taken, or if that search found nothing): the search read and
    /// checked it to answer, so its caller need not do either again.
    pub fn take_block(&mut self) -> Option<ParsedBlock> {
        self.found.take()
    }

    /// Whether data block `db` holds an entry of any id in `ids`.
    /// Unreadable blocks count as empty — their data is lost (§2.3.2).
    pub fn block_contains(&mut self, db: u64, ids: &[LogFileId]) -> Result<bool> {
        self.stats.blocks_read += 1;
        let Ok(block) = self.src.verified(db)? else {
            return Ok(false);
        };
        let hit = block
            .view()
            .entries()
            .map_while(|e| e.ok())
            .any(|e| ids.contains(&e.header.id));
        if hit {
            self.found = Some(block);
        }
        Ok(hit)
    }

    /// The union bitmap over `ids` for group (`level`, `group`).
    ///
    /// `Some` is authoritative (possibly all-zero); `None` means no map
    /// could be found and the caller must search the level below.
    fn get_map(&mut self, level: u8, group: u64, ids: &[LogFileId]) -> Result<Option<SmallBitmap>> {
        if let Some(bm) = self.memo.as_ref().and_then(|(m, _)| m.get(level, group)) {
            self.stats.memo_hits += 1;
            return Ok(Some(bm.clone()));
        }
        if self.geo.map_block(level, group) >= self.src.data_end() {
            // The covering map has not been written; the in-memory pending
            // bitmaps stand in for it (§2.3.1).
            let ans = self.pending.and_then(|p| p.union_for(level, group, ids));
            if ans.is_some() {
                self.stats.map_entries_examined += 1;
            }
            return Ok(ans);
        }
        let mut acc = SmallBitmap::new(self.geo.fanout() as usize);
        let walk = chain::read_map(
            self.src,
            self.geo,
            (level, group),
            &mut self.stats.blocks_read,
            |rec| {
                for id in ids {
                    if let Some(bytes) = rec.map_for(*id) {
                        acc.union_with_bytes(bytes);
                    }
                }
            },
        )?;
        self.stats.map_entries_examined += walk.piece_blocks;
        // No map, or a chain that never terminated: fall back to searching
        // the level below.
        let Some(last) = walk.complete_at else {
            return Ok(None);
        };
        if let Some((memo, final_end)) = &mut self.memo {
            if last < *final_end {
                memo.put(level, group, &acc);
            }
        }
        Ok(Some(acc))
    }

    /// Pending maps at level ≥ 2 reflect only *completed, propagated*
    /// sub-groups; the sub-group still accumulating at the tail of the log
    /// may contain entries that no bitmap mentions yet. When the searched
    /// group overlaps the tail, force a descent into that sub-group. (Maps
    /// read from the device never overlap the tail — they are written only
    /// after their whole range — so this is a no-op for them.)
    fn force_tail_subgroup(&self, level: u8, group: u64, bm: &mut SmallBitmap) {
        if level < 2 {
            // Level-1 pending bits are set per sealed block and are always
            // authoritative.
            return;
        }
        let end = self.src.data_end();
        if end == 0 {
            return;
        }
        let n = self.geo.fanout();
        let tail_sub = self.geo.group_of(level - 1, end - 1);
        if tail_sub >= group * n && tail_sub < (group + 1) * n {
            bm.set((tail_sub - group * n) as usize);
        }
    }

    /// Finds the greatest data block `<= from` containing entries of `ids`.
    pub fn locate_before(&mut self, ids: &[LogFileId], from: u64) -> Result<Option<u64>> {
        self.found = None;
        let end = self.src.data_end();
        if end == 0 {
            return Ok(None);
        }
        let mut upper = from.min(end - 1);
        let mut level = 1u8;
        let mut group = self.geo.group_of(1, upper);
        loop {
            self.stats.max_level = self.stats.max_level.max(u64::from(level));
            if let Some(db) = self.descend_back(level, group, upper, ids)? {
                return Ok(Some(db));
            }
            let gstart = self.geo.group_start(level, group);
            if gstart == 0 {
                return Ok(None);
            }
            upper = gstart - 1;
            level += 1;
            group = self.geo.group_of(level, upper);
        }
    }

    fn descend_back(
        &mut self,
        level: u8,
        group: u64,
        upper: u64,
        ids: &[LogFileId],
    ) -> Result<Option<u64>> {
        let end = self.src.data_end();
        if level == 0 {
            // `group` is a data block the parent bitmap marked. Verify by
            // reading it ("the log server reads this block and searches it
            // sequentially", §2.1): the bitmap may be stale if the block
            // was invalidated after it was mapped (§2.3.2).
            if group > upper || group >= end {
                return Ok(None);
            }
            return Ok(self.block_contains(group, ids)?.then_some(group));
        }
        let gstart = self.geo.group_start(level, group);
        if gstart >= end || gstart > upper {
            return Ok(None);
        }
        let n = self.geo.fanout();
        let sub_period = self.geo.period(level - 1);
        match self.get_map(level, group, ids)? {
            Some(mut bm) => {
                self.force_tail_subgroup(level, group, &mut bm);
                let mut next = bm.highest_below(n as usize);
                while let Some(j) = next {
                    let sub_group = group * n + j as u64;
                    if sub_group.saturating_mul(sub_period) <= upper {
                        if let Some(db) = self.descend_back(level - 1, sub_group, upper, ids)? {
                            return Ok(Some(db));
                        }
                    }
                    next = bm.highest_below(j);
                }
                Ok(None)
            }
            None => {
                // No map: search the level below directly (§2.3.2).
                self.stats.fallbacks += 1;
                for j in (0..n).rev() {
                    let sub_group = group * n + j;
                    let sub_start = sub_group.saturating_mul(sub_period);
                    if sub_start >= end || sub_start > upper {
                        continue;
                    }
                    if level == 1 {
                        if self.block_contains(sub_group, ids)? {
                            return Ok(Some(sub_group));
                        }
                    } else if let Some(db) = self.descend_back(level - 1, sub_group, upper, ids)? {
                        return Ok(Some(db));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Finds the least data block `>= from` containing entries of `ids`.
    pub fn locate_at_or_after(&mut self, ids: &[LogFileId], from: u64) -> Result<Option<u64>> {
        self.found = None;
        let end = self.src.data_end();
        if from >= end {
            return Ok(None);
        }
        let mut lower = from;
        let mut level = 1u8;
        let mut group = self.geo.group_of(1, lower);
        loop {
            self.stats.max_level = self.stats.max_level.max(u64::from(level));
            if let Some(db) = self.descend_fwd(level, group, lower, ids)? {
                return Ok(Some(db));
            }
            let gend = self.geo.group_start(level, group + 1);
            if gend >= end {
                return Ok(None);
            }
            lower = gend;
            level += 1;
            group = self.geo.group_of(level, lower);
        }
    }

    fn descend_fwd(
        &mut self,
        level: u8,
        group: u64,
        lower: u64,
        ids: &[LogFileId],
    ) -> Result<Option<u64>> {
        let end = self.src.data_end();
        if level == 0 {
            // Verify the candidate block; see `descend_back`.
            if group < lower || group >= end {
                return Ok(None);
            }
            return Ok(self.block_contains(group, ids)?.then_some(group));
        }
        let gstart = self.geo.group_start(level, group);
        if gstart >= end {
            return Ok(None);
        }
        let gend = self.geo.group_start(level, group + 1);
        if gend <= lower {
            return Ok(None);
        }
        let n = self.geo.fanout();
        let sub_period = self.geo.period(level - 1);
        match self.get_map(level, group, ids)? {
            Some(mut bm) => {
                self.force_tail_subgroup(level, group, &mut bm);
                let mut next = bm.lowest_at_or_above(0);
                while let Some(j) = next {
                    let sub_group = group * n + j as u64;
                    let sub_end = (sub_group + 1).saturating_mul(sub_period);
                    if sub_end > lower {
                        if let Some(db) = self.descend_fwd(level - 1, sub_group, lower, ids)? {
                            return Ok(Some(db));
                        }
                    }
                    next = bm.lowest_at_or_above(j + 1);
                }
                Ok(None)
            }
            None => {
                self.stats.fallbacks += 1;
                for j in 0..n {
                    let sub_group = group * n + j;
                    let sub_start = sub_group.saturating_mul(sub_period);
                    let sub_end = (sub_group + 1).saturating_mul(sub_period);
                    if sub_start >= end || sub_end <= lower {
                        continue;
                    }
                    if level == 1 {
                        if sub_group >= lower && self.block_contains(sub_group, ids)? {
                            return Ok(Some(sub_group));
                        }
                    } else if let Some(db) = self.descend_fwd(level - 1, sub_group, lower, ids)? {
                        return Ok(Some(db));
                    }
                }
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::build_log;
    use crate::naive;

    /// Plan helper: `blocks[db]` lists raw log file ids present in block db.
    fn plan(total: usize, placed: &[(usize, u16)]) -> Vec<Vec<u16>> {
        let mut p: Vec<Vec<u16>> = (0..total).map(|_| vec![]).collect();
        for &(db, id) in placed {
            p[db].push(id);
        }
        p
    }

    #[test]
    fn finds_nearest_before_across_groups() {
        // N=4: entries of file 8 at blocks 2 and 30; search back from 60.
        let p = plan(64, &[(2, 8), (30, 8)]);
        let (src, pending) = build_log(4, 512, &p);
        let mut loc = Locator::new(&src, Some(&pending));
        assert_eq!(loc.locate_before(&[LogFileId(8)], 60).unwrap(), Some(30));
        assert_eq!(loc.locate_before(&[LogFileId(8)], 29).unwrap(), Some(2));
        assert_eq!(loc.locate_before(&[LogFileId(8)], 1).unwrap(), None);
        assert_eq!(loc.locate_before(&[LogFileId(8)], 2).unwrap(), Some(2));
    }

    #[test]
    fn finds_nearest_after() {
        let p = plan(64, &[(2, 8), (30, 8)]);
        let (src, pending) = build_log(4, 512, &p);
        let mut loc = Locator::new(&src, Some(&pending));
        assert_eq!(loc.locate_at_or_after(&[LogFileId(8)], 0).unwrap(), Some(2));
        assert_eq!(
            loc.locate_at_or_after(&[LogFileId(8)], 3).unwrap(),
            Some(30)
        );
        assert_eq!(
            loc.locate_at_or_after(&[LogFileId(8)], 30).unwrap(),
            Some(30)
        );
        assert_eq!(loc.locate_at_or_after(&[LogFileId(8)], 31).unwrap(), None);
    }

    #[test]
    fn union_over_sublog_ids() {
        let p = plan(40, &[(5, 8), (11, 9)]);
        let (src, pending) = build_log(4, 512, &p);
        let mut loc = Locator::new(&src, Some(&pending));
        // Reading the parent means reading both ids.
        assert_eq!(
            loc.locate_before(&[LogFileId(8), LogFileId(9)], 39)
                .unwrap(),
            Some(11)
        );
        assert_eq!(loc.locate_before(&[LogFileId(8)], 39).unwrap(), Some(5));
    }

    #[test]
    fn tail_searches_use_pending() {
        // Entries only in the unmapped tail (no boundary passed yet).
        let p = plan(10, &[(7, 8)]);
        let (src, pending) = build_log(16, 512, &p);
        let mut loc = Locator::new(&src, Some(&pending));
        assert_eq!(loc.locate_before(&[LogFileId(8)], 9).unwrap(), Some(7));
        // With pending state, no data blocks are scanned.
        assert_eq!(loc.stats.fallbacks, 0);
        // Without pending state the search still succeeds via fallback.
        let mut cold = Locator::new(&src, None);
        assert_eq!(cold.locate_before(&[LogFileId(8)], 9).unwrap(), Some(7));
        assert!(cold.stats.fallbacks > 0);
    }

    #[test]
    fn matches_naive_oracle_on_random_logs() {
        use clio_testkit::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(42);
        for n in [2usize, 4, 16] {
            let total = 200;
            let p: Vec<Vec<u16>> = (0..total)
                .map(|_| {
                    let mut ids = vec![];
                    for id in [8u16, 9, 10] {
                        if rng.gen_bool(0.07) {
                            ids.push(id);
                        }
                    }
                    ids
                })
                .collect();
            let (src, pending) = build_log(n, 512, &p);
            for _ in 0..40 {
                let from = rng.gen_range(0..total as u64);
                let id = LogFileId(rng.gen_range(8..11));
                let mut loc = Locator::new(&src, Some(&pending));
                let got = loc.locate_before(&[id], from).unwrap();
                let (want, _) = naive::locate_before(&src, &[id], from).unwrap();
                assert_eq!(got, want, "back n={n} from={from} id={id}");
                let mut loc = Locator::new(&src, Some(&pending));
                let got = loc.locate_at_or_after(&[id], from).unwrap();
                let (want, _) = naive::locate_at_or_after(&src, &[id], from).unwrap();
                assert_eq!(got, want, "fwd n={n} from={from} id={id}");
            }
        }
    }

    #[test]
    fn cost_scales_logarithmically_with_distance() {
        // One entry far away; search from the end. The number of blocks
        // read must be around 2·log_N(d), not O(d).
        let total = 4096;
        let p = plan(total, &[(1, 8)]);
        let (src, pending) = build_log(16, 512, &p);
        let mut loc = Locator::new(&src, Some(&pending));
        assert_eq!(
            loc.locate_before(&[LogFileId(8)], total as u64 - 1)
                .unwrap(),
            Some(1)
        );
        // d ≈ 4096 = 16^3; theory says ~6 map reads. Allow generous slack
        // for climb boundaries, but far below a linear scan.
        assert!(
            loc.stats.blocks_read <= 13,
            "read {} blocks (maps + the verified target)",
            loc.stats.blocks_read
        );
        // The climb reached the upper levels of a 16^3-block tree.
        assert!(
            (3..=4).contains(&loc.stats.max_level),
            "max_level = {}",
            loc.stats.max_level
        );
    }

    #[test]
    fn max_level_stays_low_for_nearby_targets() {
        let p = plan(64, &[(30, 8)]);
        let (src, pending) = build_log(4, 512, &p);
        let mut loc = Locator::new(&src, Some(&pending));
        assert_eq!(loc.locate_before(&[LogFileId(8)], 31).unwrap(), Some(30));
        assert_eq!(loc.stats.max_level, 1);
    }

    #[test]
    fn empty_log_and_missing_file() {
        let (src, pending) = build_log(4, 512, &[]);
        let mut loc = Locator::new(&src, Some(&pending));
        assert_eq!(loc.locate_before(&[LogFileId(8)], 100).unwrap(), None);
        let p = plan(20, &[(3, 9)]);
        let (src, pending) = build_log(4, 512, &p);
        let mut loc = Locator::new(&src, Some(&pending));
        assert_eq!(loc.locate_before(&[LogFileId(8)], 19).unwrap(), None);
    }
}
