//! A synthetic, on-demand block source.
//!
//! Generates exactly the block images the real write path would produce
//! for a log where a single client log file (id 8) has entries in a given
//! set of blocks — including all entrymap records at their boundary blocks,
//! computed analytically from the placement. Because images are produced
//! per read, a 10⁷-block "volume" costs no memory, which is what the
//! Figure 3 sweep needs.

use std::collections::BTreeSet;
use std::sync::Arc;

use clio_entrymap::{BlockSource, Geometry, PendingMaps};
use clio_format::{BlockBuilder, EntryForm, EntryHeader, EntrymapRecord, PushOutcome};
use clio_types::{LogFileId, Result, SmallBitmap, Timestamp};

/// The log file id the synthetic log places entries for.
pub const SYNTH_FILE: LogFileId = LogFileId(8);

/// Virtual microseconds between consecutive blocks' first timestamps.
pub const BLOCK_TIME_STEP: u64 = 1_000;

/// A deterministic, memory-free log of `total` blocks with entries of
/// [`SYNTH_FILE`] in the `placed` blocks.
pub struct SyntheticSource {
    geo: Geometry,
    fanout: usize,
    block_size: usize,
    total: u64,
    placed: BTreeSet<u64>,
}

impl SyntheticSource {
    /// Creates a source; `placed` lists the blocks containing file entries.
    #[must_use]
    pub fn new(
        fanout: usize,
        block_size: usize,
        total: u64,
        placed: BTreeSet<u64>,
    ) -> SyntheticSource {
        SyntheticSource {
            geo: Geometry::new(fanout),
            fanout,
            block_size,
            total,
            placed,
        }
    }

    /// Whether any placed block falls in `[start, stop)`.
    fn any_in(&self, start: u64, stop: u64) -> bool {
        self.placed.range(start..stop).next().is_some()
    }

    /// The bitmap of a level-`level` map covering `group`.
    fn bitmap_for(&self, level: u8, group: u64) -> SmallBitmap {
        let mut bm = SmallBitmap::new(self.fanout);
        let sub = self.geo.period(level - 1);
        for j in 0..self.fanout as u64 {
            let start = (group * self.fanout as u64 + j) * sub;
            if self.any_in(start, start.saturating_add(sub)) {
                bm.set(j as usize);
            }
        }
        bm
    }

    /// The entrymap records due at the start of block `db` (what the real
    /// writer's `begin_block` would emit).
    fn records_at(&self, db: u64) -> Vec<EntrymapRecord> {
        let top = self.geo.boundary_level(db);
        (1..=top)
            .map(|level| {
                let group = db / self.geo.period(level) - 1;
                let bm = self.bitmap_for(level, group);
                let maps = if bm.any() {
                    vec![(SYNTH_FILE, bm)]
                } else {
                    vec![]
                };
                EntrymapRecord::new(level, group, self.fanout as u16, maps)
            })
            .collect()
    }

    /// The pending (unmapped-tail) state matching this log — what a live
    /// writer would hold, computed analytically.
    #[must_use]
    pub fn pending(&self) -> PendingMaps {
        // Reuse the recovery path: it is property-tested to equal the live
        // writer's state, and on this source it reads only O(N·log_N b)
        // synthetic blocks.
        let (pending, _) =
            clio_entrymap::rebuild_pending(self).expect("synthetic source is infallible");
        pending
    }
}

impl BlockSource for SyntheticSource {
    fn fanout(&self) -> usize {
        self.fanout
    }

    fn data_end(&self) -> u64 {
        self.total
    }

    fn read(&self, db: u64) -> Result<Arc<Vec<u8>>> {
        let mut b = BlockBuilder::new(self.block_size, Timestamp(db * BLOCK_TIME_STEP));
        for rec in self.records_at(db) {
            let header = EntryHeader::new(LogFileId::ENTRYMAP, EntryForm::Minimal, None, None);
            match b.push(&header, &rec.encode()) {
                PushOutcome::Written(_) => {}
                PushOutcome::NoSpace { .. } => {
                    unreachable!("synthetic maps always fit: one file, small bitmaps")
                }
            }
            b.flags_mut().has_entrymap = true;
        }
        if self.placed.contains(&db) {
            let header = EntryHeader::new(
                SYNTH_FILE,
                EntryForm::Timestamped,
                Some(Timestamp(db * BLOCK_TIME_STEP + 1)),
                None,
            );
            let _ = b.push(&header, b"synthetic-entry");
        }
        Ok(Arc::new(b.finish()))
    }
}

#[cfg(test)]
mod tests {
    use clio_entrymap::harness::build_log;
    use clio_entrymap::{naive, Locator};
    use clio_format::BlockView;
    use clio_testkit::rng::StdRng;

    use super::*;

    /// The entrymap records block `db` of `src` carries, in order.
    fn records_of(src: &impl BlockSource, db: u64) -> Vec<EntrymapRecord> {
        let image = src.read(db).expect("in-memory read");
        let view = BlockView::parse(&image).expect("built blocks parse");
        view.entries()
            .map(|e| e.expect("built entries parse"))
            .filter(|e| e.header.id == LogFileId::ENTRYMAP)
            .map(|e| EntrymapRecord::decode(e.payload).expect("built records decode"))
            .collect()
    }

    /// The Figure 3, Table 1, Figure 4 and locator-ablation harnesses read
    /// this source as if the entrymap writer had produced it. Over seeded
    /// placements, every block carries the records the live writer emits
    /// for the same placement, and the pending state answers every
    /// `union_for` query as the writer's does. The states are compared by
    /// their answers, not by `==`: the rebuilt one may hold an empty top
    /// level the writer never opened.
    #[test]
    fn synthetic_log_is_the_log_the_writer_produces() {
        let mut rng = StdRng::seed_from_u64(0x5E17);
        for n in [2usize, 4, 16] {
            let geo = Geometry::new(n);
            let most = (n as u64).pow(3) + 7;
            for case in 0..24 {
                let total = if case == 0 {
                    most
                } else {
                    rng.gen_range(1..=most)
                };
                let density = [0.02, 0.2, 0.6, 1.0][case % 4];
                let placed: BTreeSet<u64> = (0..total).filter(|_| rng.gen_bool(density)).collect();
                let plan: Vec<Vec<u16>> = (0..total)
                    .map(|db| {
                        if placed.contains(&db) {
                            vec![SYNTH_FILE.0]
                        } else {
                            vec![]
                        }
                    })
                    .collect();
                let (built, live) = build_log(n, 512, &plan);
                let synth = SyntheticSource::new(n, 512, total, placed);
                for db in 0..total {
                    assert_eq!(
                        records_of(&synth, db),
                        records_of(&built, db),
                        "N={n}, {total} blocks: block {db}"
                    );
                }
                let pending = synth.pending();
                for level in 1..=geo.levels_for(total) + 1 {
                    for group in 0..=total / geo.period(level) + 1 {
                        assert_eq!(
                            pending.union_for(level, group, &[SYNTH_FILE]),
                            live.union_for(level, group, &[SYNTH_FILE]),
                            "N={n}, {total} blocks: level {level}, group {group}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_locator_semantics() {
        let placed: BTreeSet<u64> = [3u64, 77, 200, 4095].into_iter().collect();
        let src = SyntheticSource::new(16, 512, 5000, placed.clone());
        let pending = src.pending();
        let mut loc = Locator::new(&src, Some(&pending));
        assert_eq!(loc.locate_before(&[SYNTH_FILE], 4999).unwrap(), Some(4095));
        assert_eq!(loc.locate_before(&[SYNTH_FILE], 4094).unwrap(), Some(200));
        assert_eq!(loc.locate_before(&[SYNTH_FILE], 2).unwrap(), None);
        let mut loc = Locator::new(&src, Some(&pending));
        assert_eq!(
            loc.locate_at_or_after(&[SYNTH_FILE], 78).unwrap(),
            Some(200)
        );
        // Agrees with the naive oracle on a sample.
        for from in [10u64, 100, 1000, 4999] {
            let (want, _) = naive::locate_before(&src, &[SYNTH_FILE], from).unwrap();
            let mut loc = Locator::new(&src, Some(&pending));
            assert_eq!(loc.locate_before(&[SYNTH_FILE], from).unwrap(), want);
        }
    }

    #[test]
    fn distant_lookup_is_logarithmic() {
        // A single entry 1,000,000 blocks back: the search must stay in the
        // tens of block reads.
        let placed: BTreeSet<u64> = [5u64].into_iter().collect();
        let src = SyntheticSource::new(16, 512, 1_000_000, placed);
        let pending = src.pending();
        let mut loc = Locator::new(&src, Some(&pending));
        assert_eq!(loc.locate_before(&[SYNTH_FILE], 999_999).unwrap(), Some(5));
        assert!(
            loc.stats.blocks_read <= 17,
            "read {} blocks",
            loc.stats.blocks_read
        );
    }
}
