//! A miniature log builder for tests and benchmarks.
//!
//! Builds a volume's worth of block images from a *placement plan* — a list
//! of which log files have entries in each block — driving
//! [`EntrymapWriter`] exactly as the full service does. This gives the
//! search/recovery tests and the Figure 3 / Table 1 / Figure 4 benchmarks
//! precise control over entry placement without the full `clio-core`
//! machinery.

use std::sync::Arc;

use clio_types::{LogFileId, Timestamp};

use clio_format::{BlockBuilder, EntryForm, EntryHeader, PushOutcome};

use crate::geometry::Geometry;
use crate::pending::PendingMaps;
use crate::source::VecSource;
use crate::writer::EntrymapWriter;

/// Microseconds of virtual time per block in built logs; entry `slot` of
/// block `db` gets timestamp `db * BLOCK_TIME_STEP + slot`.
pub const BLOCK_TIME_STEP: u64 = 1_000;

/// Builds a log with degree `n` and `block_size`-byte blocks; `plan[db]`
/// lists the raw ids of log files with one entry each in block `db`.
///
/// Returns the built blocks and the writer's final pending state.
///
/// # Panics
///
/// Panics if a block cannot hold its plan (choose a bigger block size) —
/// the plan is test input, not runtime data.
pub fn build_log(n: usize, block_size: usize, plan: &[Vec<u16>]) -> (VecSource, PendingMaps) {
    let mut writer = EntrymapWriter::new(Geometry::new(n));
    let mut blocks = Vec::with_capacity(plan.len());
    for (db, present) in plan.iter().enumerate() {
        let db = db as u64;
        let records = writer.begin_block(db);
        let mut b = BlockBuilder::new(block_size, Timestamp(db * BLOCK_TIME_STEP));
        for rec in &records {
            let header = EntryHeader::new(LogFileId::ENTRYMAP, EntryForm::Minimal, None, None);
            match b.push(&header, &rec.encode()) {
                PushOutcome::Written(_) => {}
                PushOutcome::NoSpace { .. } => panic!("block too small for entrymap records"),
            }
            b.flags_mut().has_entrymap = true;
        }
        for (slot, &raw) in present.iter().enumerate() {
            let ts = Timestamp(db * BLOCK_TIME_STEP + slot as u64);
            let header = EntryHeader::new(LogFileId(raw), EntryForm::Timestamped, Some(ts), None);
            match b.push(&header, b"harness-entry") {
                PushOutcome::Written(_) => {}
                PushOutcome::NoSpace { .. } => panic!("block too small for planned entries"),
            }
        }
        writer.note_block(db, present.iter().map(|&r| LogFileId(r)));
        blocks.push(Arc::new(b.finish()));
    }
    (VecSource { fanout: n, blocks }, writer.pending().clone())
}

#[cfg(test)]
mod tests {
    use clio_format::BlockView;

    use super::*;

    #[test]
    fn built_blocks_parse_and_carry_maps() {
        let plan: Vec<Vec<u16>> = (0..20)
            .map(|db| if db % 3 == 0 { vec![8] } else { vec![] })
            .collect();
        let (src, _) = build_log(4, 512, &plan);
        assert_eq!(src.blocks.len(), 20);
        // Block 4 is a level-1 boundary: first entry is an entrymap entry.
        let v = BlockView::parse(&src.blocks[4]).unwrap();
        let first = v.entry(0).unwrap();
        assert_eq!(first.header.id, LogFileId::ENTRYMAP);
        assert!(v.flags().has_entrymap);
        // Block 3 has a file-8 entry with the expected timestamp.
        let v = BlockView::parse(&src.blocks[3]).unwrap();
        let e = v.entry(0).unwrap();
        assert_eq!(e.header.id, LogFileId(8));
        assert_eq!(e.header.timestamp, Some(Timestamp(3 * BLOCK_TIME_STEP)));
    }
}
