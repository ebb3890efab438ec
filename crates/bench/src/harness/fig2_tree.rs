//! Figure 2: the example entrymap search tree (N = 4).
//!
//! The paper's figure marks five blocks of one log file within 16 blocks
//! and shows the level-1 bitmaps plus the level-2 bitmap that indexes
//! them. We drive the real [`clio_entrymap::EntrymapWriter`] over the same
//! placement and print the records it emits.

use std::io::{self, Write};

use clio_entrymap::{EntrymapWriter, Geometry};
use clio_types::LogFileId;

pub fn run(out: &mut impl Write, _args: &[String]) -> io::Result<()> {
    let n = 4usize;
    let file = LogFileId(8);
    // Five marked blocks within the first 16, as in the figure.
    let marked = [1u64, 6, 7, 12, 15];
    let mut w = EntrymapWriter::new(Geometry::new(n));
    let mut emitted = Vec::new();
    for db in 0..=16u64 {
        for rec in w.begin_block(db) {
            emitted.push((db, rec));
        }
        if db < 16 {
            let ids: Vec<LogFileId> = if marked.contains(&db) {
                vec![file]
            } else {
                vec![]
            };
            w.note_block(db, ids);
        }
    }
    writeln!(
        out,
        "Figure 2 — entrymap search tree for N = 4, file entries in blocks {marked:?}\n"
    )?;
    writeln!(
        out,
        "blocks:  {}",
        (0..16)
            .map(|b| if marked.contains(&b) { '#' } else { '.' })
            .collect::<String>()
    )?;
    let mut rows = Vec::new();
    for (at, rec) in &emitted {
        let bits = rec
            .map_for(file)
            .map(|bm| {
                (0..n)
                    .map(|i| if bm.get(i) { '1' } else { '0' })
                    .collect::<String>()
            })
            .unwrap_or_else(|| "0".repeat(n));
        let cover_lo = rec.group * (n as u64).pow(u32::from(rec.level));
        let cover_hi = (rec.group + 1) * (n as u64).pow(u32::from(rec.level));
        writeln!(out,
            "level-{} entrymap entry written at block {:>2}, covering blocks {:>2}..{:>2}: bitmap {}",
            rec.level, at, cover_lo, cover_hi, bits
        )?;
        rows.push(vec![
            format!("{}", rec.level),
            format!("{at}"),
            format!("{cover_lo}"),
            format!("{cover_hi}"),
            bits,
        ]);
    }
    writeln!(
        out,
        "\nThe level-2 bitmap (written at block 16) marks level-1 groups 0, 1 and 3 — the"
    )?;
    writeln!(out, "shape of the tree in the paper's Figure 2.")?;
    Ok(())
}
