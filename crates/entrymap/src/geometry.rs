//! Entrymap tree arithmetic.

use clio_types::MAX_FANOUT;

/// Fixed geometry of an entrymap tree: the degree `N` (paper §2.1).
///
/// Level-`l` groups partition the data blocks into runs of `N^l`; the map
/// covering group `g` at level `l` is written at the start of data block
/// `(g + 1) · N^l` (the first block *after* the covered range, so the whole
/// range is known when the map is written).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    fanout: u64,
}

impl Geometry {
    /// Creates a geometry with degree `fanout`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= fanout <= `[`MAX_FANOUT`]; the degree is fixed at volume
    /// creation and an out-of-range value is a configuration bug.
    #[must_use]
    pub fn new(fanout: usize) -> Geometry {
        assert!(
            (2..=MAX_FANOUT).contains(&fanout),
            "unsupported fanout {fanout}"
        );
        Geometry {
            fanout: fanout as u64,
        }
    }

    /// The degree `N`.
    #[must_use]
    pub fn fanout(&self) -> u64 {
        self.fanout
    }

    /// `N^level`, saturating at `u64::MAX` (a period larger than any device).
    #[must_use]
    pub fn period(&self, level: u8) -> u64 {
        self.fanout
            .checked_pow(u32::from(level))
            .unwrap_or(u64::MAX)
    }

    /// The level-`level` group containing data block `db`.
    #[must_use]
    pub fn group_of(&self, level: u8, db: u64) -> u64 {
        db / self.period(level)
    }

    /// The first data block of group `group` at `level`.
    #[must_use]
    pub fn group_start(&self, level: u8, group: u64) -> u64 {
        group.saturating_mul(self.period(level))
    }

    /// The data block whose start carries the map for (`level`, `group`).
    #[must_use]
    pub fn map_block(&self, level: u8, group: u64) -> u64 {
        (group + 1).saturating_mul(self.period(level))
    }

    /// The highest level with a boundary at data block `db` (0 if none).
    ///
    /// A boundary at level `l` means maps for levels `1..=l` are due as the
    /// first entries of block `db` — "a block that contains a level-(i+1)
    /// entrymap entry also contains a level-i log entry" (§3.3.1).
    #[must_use]
    pub fn boundary_level(&self, db: u64) -> u8 {
        if db == 0 {
            return 0;
        }
        let mut level = 0u8;
        let mut period = 1u64;
        loop {
            match period.checked_mul(self.fanout) {
                Some(next) if db.is_multiple_of(next) => {
                    level += 1;
                    period = next;
                }
                _ => return level,
            }
        }
    }

    /// Number of levels that can hold *pending* (unmapped tail) state when
    /// `end` data blocks are written: the smallest `L` with `N^L >= end`,
    /// and at least 1.
    #[must_use]
    pub fn levels_for(&self, end: u64) -> u8 {
        let mut level = 1u8;
        while self.period(level) < end {
            level += 1;
        }
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periods() {
        let g = Geometry::new(16);
        assert_eq!(g.period(0), 1);
        assert_eq!(g.period(1), 16);
        assert_eq!(g.period(2), 256);
        assert_eq!(g.period(3), 4096);
        // Saturation instead of overflow.
        assert_eq!(g.period(60), u64::MAX);
    }

    #[test]
    fn boundary_levels_match_figure_2() {
        // With N = 4: block 4 closes a level-1 group; block 16 closes a
        // level-2 group (and a level-1 group); block 64 closes level 3.
        let g = Geometry::new(4);
        assert_eq!(g.boundary_level(0), 0);
        assert_eq!(g.boundary_level(1), 0);
        assert_eq!(g.boundary_level(4), 1);
        assert_eq!(g.boundary_level(8), 1);
        assert_eq!(g.boundary_level(16), 2);
        assert_eq!(g.boundary_level(32), 2);
        assert_eq!(g.boundary_level(64), 3);
    }

    #[test]
    fn groups_and_map_blocks() {
        let g = Geometry::new(16);
        assert_eq!(g.group_of(1, 0), 0);
        assert_eq!(g.group_of(1, 15), 0);
        assert_eq!(g.group_of(1, 16), 1);
        assert_eq!(g.group_start(1, 3), 48);
        // The map for level-1 group 0 (blocks 0..16) lives at block 16.
        assert_eq!(g.map_block(1, 0), 16);
        // The map for level-2 group 0 (blocks 0..256) lives at block 256.
        assert_eq!(g.map_block(2, 0), 256);
        assert_eq!(g.map_block(1, 9), 160);
    }

    #[test]
    fn levels_for_written_prefix() {
        let g = Geometry::new(16);
        assert_eq!(g.levels_for(0), 1);
        assert_eq!(g.levels_for(1), 1);
        assert_eq!(g.levels_for(16), 1);
        assert_eq!(g.levels_for(17), 2);
        assert_eq!(g.levels_for(256), 2);
        assert_eq!(g.levels_for(257), 3);
        assert_eq!(g.levels_for(1_000_000), 5);
    }

    #[test]
    #[should_panic(expected = "unsupported fanout")]
    fn rejects_degenerate_fanout() {
        let _ = Geometry::new(1);
    }
}
