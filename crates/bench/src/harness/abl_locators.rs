//! Ablation (§5.1): entrymap tree vs a Daniels-style binary tree vs the
//! naive full scan.
//!
//! Scenario: a log file wrote entries (one per 16 blocks) for a long
//! stretch, then went quiet while other log files kept the volume growing;
//! a reader at the tail asks for the file's most recent entry — `d` blocks
//! back. This is the paper's "most frequent accesses to large logs are to
//! those entries that were written most recently" pattern with a twist of
//! distance.
//!
//! Costs: the entrymap search is `~2·log_N(d)` in the *distance*; a
//! balanced binary tree over the file's `m` entry blocks costs `~log2(m)`
//! regardless of distance; the naive scan costs `d`. The paper's §5.1
//! claim — both are logarithmic, ours needs significantly fewer reads for
//! very distant entries — appears as the entrymap column staying below the
//! binary-tree column across the sweep.

use std::collections::BTreeSet;
use std::io::{self, Write};

use clio_entrymap::binary_tree::BinaryTreeIndex;
use clio_entrymap::{theory, Locator};

use crate::synth::{SyntheticSource, SYNTH_FILE};
use crate::table;

pub fn run(out: &mut impl Write, _args: &[String]) -> io::Result<()> {
    let total: u64 = 1 << 21;
    let stride = 16u64;
    let mut rows = Vec::new();
    for exp in [4u32, 8, 12, 16, 20] {
        let d = 1u64 << exp;
        // Entries every `stride` blocks up to the quiet point.
        let quiet_from = total - d;
        let placed: BTreeSet<u64> = (0..quiet_from).step_by(stride as usize).collect();
        let m = placed.len() as u64;
        let expect = *placed.iter().next_back().expect("non-empty placement");
        let src = SyntheticSource::new(16, 1024, total, placed.clone());
        let pending = src.pending();

        let mut loc = Locator::new(&src, Some(&pending));
        let got = loc
            .locate_before(&[SYNTH_FILE], total - 1)
            .expect("synthetic reads cannot fail");
        assert_eq!(got, Some(expect), "entrymap found the wrong entry");

        let mut bt = BinaryTreeIndex::new();
        for &b in &placed {
            bt.note_block(b, SYNTH_FILE);
        }
        let bl = bt.locate_before(SYNTH_FILE, total - 1);
        assert_eq!(bl.block, Some(expect), "binary tree found the wrong entry");

        rows.push(vec![
            format!("2^{exp}"),
            format!("{m}"),
            format!(
                "{} (theory {})",
                loc.stats.blocks_read,
                table::f2(theory::fig3_locate_cost(16, d as f64))
            ),
            format!("{}", bl.reads),
            format!("{d}"),
        ]);
    }
    writeln!(
        out,
        "§5.1 ablation — block reads to find a log file's most recent entry, d blocks back"
    )?;
    writeln!(
        out,
        "(2M-block volume; the file has one entry per 16 blocks until it goes quiet)\n"
    )?;
    let header = [
        "distance d",
        "file blocks m",
        "entrymap reads",
        "binary-tree reads (~log2 m)",
        "naive reads (=d)",
    ];
    write!(out, "{}", table::render(&header, &rows))?;
    writeln!(
        out,
        "\nPaper's claim (§5.1) holds if the entrymap column stays below the binary-tree"
    )?;
    writeln!(
        out,
        "column throughout — with N=16, 2·log_16 d = 0.5·log2 d."
    )?;
    Ok(())
}
