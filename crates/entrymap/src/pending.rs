//! In-memory bitmaps for the unmapped tail of the log.
//!
//! Between two level-`l` boundaries, the server accumulates, per log file,
//! which sub-groups of the *current* level-`l` group contain entries. This
//! is the "cached knowledge" destroyed by a crash and reconstructed during
//! initialization (§2.3.1 step 2, §3.4). The locator consults it for
//! searches that start in the tail region not yet covered by on-device
//! entrymap entries.

use std::collections::BTreeMap;
use std::sync::Arc;

use clio_types::{LogFileId, SmallBitmap};

use crate::geometry::Geometry;

/// Per-level accumulating bitmaps for the current (incomplete) group.
///
/// Levels are copy-on-write: the log service freezes a clone into every
/// read snapshot it publishes, and a clone shares each level until the
/// writer next touches it — between two boundaries that is level 1 only,
/// so a snapshot costs one level's maps, not the whole tree's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingMaps {
    geo: Geometry,
    levels: Vec<Arc<LevelPending>>,
}

/// One level's in-progress group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LevelPending {
    /// Which group at this level is accumulating.
    pub group: u64,
    /// Bitmaps per log file; a missing id means "no entries yet".
    pub maps: BTreeMap<LogFileId, SmallBitmap>,
}

impl PendingMaps {
    /// Empty pending state for a fresh volume.
    #[must_use]
    pub fn new(geo: Geometry) -> PendingMaps {
        PendingMaps {
            geo,
            levels: vec![Arc::new(LevelPending {
                group: 0,
                maps: BTreeMap::new(),
            })],
        }
    }

    /// The tree geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// Number of levels currently tracked.
    #[must_use]
    pub fn level_count(&self) -> u8 {
        self.levels.len() as u8
    }

    pub(crate) fn level(&self, level: u8) -> Option<&LevelPending> {
        self.levels
            .get(usize::from(level.checked_sub(1)?))
            .map(|lp| &**lp)
    }

    pub(crate) fn level_mut(&mut self, level: u8) -> &mut LevelPending {
        let idx = usize::from(level - 1);
        while self.levels.len() <= idx {
            self.levels.push(Arc::new(LevelPending {
                group: 0,
                maps: BTreeMap::new(),
            }));
        }
        Arc::make_mut(&mut self.levels[idx])
    }

    /// Sets bit `bit` for `id` in the current group at `level`.
    pub(crate) fn set_bit(&mut self, level: u8, id: LogFileId, bit: usize) {
        let n = self.geo.fanout() as usize;
        let lp = self.level_mut(level);
        lp.maps
            .entry(id)
            .or_insert_with(|| SmallBitmap::new(n))
            .set(bit);
    }

    /// The union bitmap over `ids` for (`level`, `group`), if that group is
    /// the one currently accumulating at that level.
    ///
    /// `Some(bitmap)` is authoritative (an all-zero bitmap means "these log
    /// files have no entries in the covered range"); `None` means this
    /// pending state cannot answer for that group.
    #[must_use]
    pub fn union_for(&self, level: u8, group: u64, ids: &[LogFileId]) -> Option<SmallBitmap> {
        let Some(lp) = self.level(level) else {
            // A level the writer never touched has never crossed a group
            // boundary nor received a propagation: group 0 is provably
            // all-empty, any other group cannot be current.
            return (group == 0).then(|| SmallBitmap::new(self.geo.fanout() as usize));
        };
        if lp.group != group {
            return None;
        }
        let mut acc = SmallBitmap::new(self.geo.fanout() as usize);
        for id in ids {
            if let Some(bm) = lp.maps.get(id) {
                acc.union_with(bm);
            }
        }
        Some(acc)
    }

    /// Drops all per-file bitmaps for (`level`) and advances to `group`.
    pub(crate) fn roll(&mut self, level: u8, group: u64) {
        let lp = self.level_mut(level);
        lp.group = group;
        lp.maps.clear();
    }

    /// Takes the accumulated bitmaps for (`level`), leaving it rolled to
    /// `next_group`.
    pub(crate) fn take(&mut self, level: u8, next_group: u64) -> BTreeMap<LogFileId, SmallBitmap> {
        let lp = self.level_mut(level);
        lp.group = next_group;
        std::mem::take(&mut lp.maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_union() {
        let mut p = PendingMaps::new(Geometry::new(8));
        p.set_bit(1, LogFileId(8), 2);
        p.set_bit(1, LogFileId(9), 5);
        let u = p.union_for(1, 0, &[LogFileId(8), LogFileId(9)]).unwrap();
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![2, 5]);
        let solo = p.union_for(1, 0, &[LogFileId(9)]).unwrap();
        assert_eq!(solo.iter_ones().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn wrong_group_is_unknown_not_empty() {
        let mut p = PendingMaps::new(Geometry::new(8));
        p.set_bit(1, LogFileId(8), 2);
        assert!(p.union_for(1, 1, &[LogFileId(8)]).is_none());
        // Right group, unknown id: authoritative empty.
        let u = p.union_for(1, 0, &[LogFileId(99)]).unwrap();
        assert!(!u.any());
    }

    #[test]
    fn levels_appear_on_demand() {
        let mut p = PendingMaps::new(Geometry::new(8));
        assert_eq!(p.level_count(), 1);
        p.set_bit(3, LogFileId(8), 0);
        assert_eq!(p.level_count(), 3);
        assert!(p.union_for(2, 0, &[LogFileId(8)]).unwrap().count_ones() == 0);
        assert!(p.union_for(3, 0, &[LogFileId(8)]).unwrap().get(0));
    }

    #[test]
    fn roll_clears_and_advances() {
        let mut p = PendingMaps::new(Geometry::new(8));
        p.set_bit(1, LogFileId(8), 1);
        p.roll(1, 5);
        assert!(p.union_for(1, 0, &[LogFileId(8)]).is_none());
        let u = p.union_for(1, 5, &[LogFileId(8)]).unwrap();
        assert!(!u.any());
    }

    #[test]
    fn take_returns_maps() {
        let mut p = PendingMaps::new(Geometry::new(8));
        p.set_bit(1, LogFileId(8), 1);
        let taken = p.take(1, 1);
        assert_eq!(taken.len(), 1);
        assert!(taken[&LogFileId(8)].get(1));
        assert!(p.union_for(1, 1, &[LogFileId(8)]).unwrap().count_ones() == 0);
    }
}
