//! Reading one entrymap map off the device — the one place that does.
//!
//! The map for (`level`, `group`) is due as the first entries of block
//! [`Geometry::map_block`]. It may not be there: an invalidated or corrupt
//! block displaces it into the next uncorrupted one (§2.3.2), and a map
//! with more per-file bitmaps than its block has room for is split into a
//! chain of records over the following blocks, every record but the last
//! flagged `continued`. The locator and the pending-state rebuild both
//! need exactly this walk; they differ only in what they take from each
//! record, so that is the closure they pass.

use clio_types::{LogFileId, Result};

use clio_format::EntrymapRecordView;

use crate::geometry::Geometry;
use crate::source::BlockSource;

/// How many blocks after the nominal map block (or after a `continued`
/// piece) to look for displaced records.
const DISPLACEMENT_WINDOW: u64 = 4;

/// What a walk of one map's records found.
pub(crate) struct MapWalk {
    /// Blocks that held at least one record of the map.
    pub piece_blocks: u64,
    /// The last block read, if the walk ended on a block whose records of
    /// the map were not `continued` — every piece was seen, all of them in
    /// blocks at or before this one. `None` if no record was found, or the
    /// chain never terminated inside the window: what `each` was shown is
    /// then incomplete, and answering from it could hide entries.
    pub complete_at: Option<u64>,
}

/// Walks the records of map (`level`, `group`) on `src`, calling `each`
/// with every one of them (width-checked against the tree's degree), and
/// adding every block read to `blocks_read`.
pub(crate) fn read_map<S: BlockSource>(
    src: &S,
    geo: Geometry,
    (level, group): (u8, u64),
    blocks_read: &mut u64,
    mut each: impl FnMut(&EntrymapRecordView<'_>),
) -> Result<MapWalk> {
    let end = src.data_end();
    let mut cand = geo.map_block(level, group);
    let mut limit = cand.saturating_add(DISPLACEMENT_WINDOW).min(end);
    let mut piece_blocks = 0;
    while cand < limit {
        *blocks_read += 1;
        // Invalidated or corrupt: the map may be displaced into the next
        // uncorrupted block (§2.3.2).
        if let Ok(block) = src.verified(cand)? {
            let mut found_here = false;
            let mut continued_here = false;
            for e in block.view().entries() {
                let Ok(e) = e else { break };
                if e.header.id != LogFileId::ENTRYMAP {
                    continue;
                }
                let Ok(rec) = EntrymapRecordView::parse(e.payload) else {
                    continue;
                };
                if rec.level == level && rec.group == group && u64::from(rec.bits) == geo.fanout() {
                    found_here = true;
                    continued_here |= rec.continued;
                    each(&rec);
                }
            }
            if found_here {
                piece_blocks += 1;
                if !continued_here {
                    return Ok(MapWalk {
                        piece_blocks,
                        complete_at: Some(cand),
                    });
                }
                // More pieces of this map were displaced forward; widen
                // the search window past this block.
                limit = (cand + 1).saturating_add(DISPLACEMENT_WINDOW).min(end);
            }
        }
        cand += 1;
    }
    Ok(MapWalk {
        piece_blocks,
        complete_at: None,
    })
}
