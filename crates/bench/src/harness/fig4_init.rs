//! Figure 4: average cost of reconstructing entrymap information at
//! server initialization, against the number of written blocks `b`, for
//! N ∈ {4, 8, 16, 64, 128}.
//!
//! Theory: `n = (N·log_N b)/2` blocks examined on average (§3.4) — note
//! the *increase* with N, the flip side of Figure 3. We run the real
//! rebuild ([`clio_entrymap::rebuild_pending`]) over synthetic volumes and
//! average over several end phases (the cost oscillates with `b mod N^l`).

use std::collections::BTreeSet;
use std::io::{self, Write};

use clio_entrymap::{rebuild_pending, theory};

use crate::synth::SyntheticSource;
use crate::table;

pub fn run(out: &mut impl Write, _args: &[String]) -> io::Result<()> {
    let fanouts = [4usize, 8, 16, 64, 128];
    let sizes: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];
    let phases = 16u64;
    let mut rows = Vec::new();
    for &b in &sizes {
        let mut row = vec![format!("{b}")];
        for &n in &fanouts {
            let mut total_reads = 0u64;
            for j in 0..phases {
                // Sample end positions spread across boundary phases.
                let end = b + j * (b / (2 * phases)).max(1);
                // Sparse entries so level-1 scans see realistic blocks.
                let placed: BTreeSet<u64> = (0..end).step_by(7).collect();
                let src = SyntheticSource::new(n, 1024, end, placed);
                let (_, stats) = rebuild_pending(&src).expect("synthetic reads cannot fail");
                total_reads += stats.blocks_read;
            }
            let avg = total_reads as f64 / phases as f64;
            row.push(format!(
                "{} ({})",
                table::f2(avg),
                table::f2(theory::fig4_rebuild_cost(n, b as f64))
            ));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("blocks b".to_owned())
        .chain(fanouts.iter().map(|n| format!("N={n} meas(theory)")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    writeln!(
        out,
        "Figure 4 — blocks examined to reconstruct entrymap information at initialization"
    )?;
    writeln!(out, "measured via the real recovery rebuild, averaged over {phases} end phases; theory = (N·log_N b)/2\n")?;
    write!(out, "{}", table::render(&header_refs, &rows))?;
    writeln!(
        out,
        "\nPaper's observation holds if cost *increases* with N (opposite of Figure 3),"
    )?;
    writeln!(out, "keeping the N = 16–32 sweet spot (§3.4).")?;
    Ok(())
}
