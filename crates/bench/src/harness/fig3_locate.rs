//! Figure 3: average cost of locating an entry `d` blocks away, without
//! caching, for N ∈ {4, 8, 16, 64, 128}.
//!
//! The paper plots `n = 2·log_N d` entrymap entries examined. We *measure*
//! the implementation: a single entry is placed `d` blocks before the end
//! of a synthetic log and located with a cold locator; we report entrymap
//! entries examined and device block reads alongside the closed form.

use std::collections::BTreeSet;
use std::io::{self, Write};

use clio_entrymap::{theory, Locator};

use crate::synth::{SyntheticSource, SYNTH_FILE};
use crate::table;

pub fn run(out: &mut impl Write, _args: &[String]) -> io::Result<()> {
    let fanouts = [4usize, 8, 16, 64, 128];
    let distances: [u64; 8] = [
        10, 100, 1_000, 10_000, 100_000, 1_000_000, 5_000_000, 10_000_000,
    ];
    let mut rows = Vec::new();
    for &d in &distances {
        let mut row = vec![format!("{d}")];
        for &n in &fanouts {
            // Log long enough to hold the distance; search from the end.
            let total = d + 2;
            let target = total - 1 - d;
            let placed: BTreeSet<u64> = [target].into_iter().collect();
            let src = SyntheticSource::new(n, 1024, total, placed);
            let pending = src.pending();
            let mut loc = Locator::new(&src, Some(&pending));
            let got = loc
                .locate_before(&[SYNTH_FILE], total - 1)
                .expect("synthetic source reads cannot fail");
            assert_eq!(got, Some(target), "locator missed the planted entry");
            row.push(format!(
                "{} ({})",
                loc.stats.map_entries_examined,
                table::f2(theory::fig3_locate_cost(n, d as f64))
            ));
        }
        rows.push(row);
    }
    let header: Vec<String> = std::iter::once("distance d".to_owned())
        .chain(fanouts.iter().map(|n| format!("N={n} meas(theory)")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    writeln!(
        out,
        "Figure 3 — entrymap entries examined to locate an entry d blocks away (no caching)"
    )?;
    writeln!(
        out,
        "measured on the real locator over a synthetic volume; theory = 2·log_N d\n"
    )?;
    write!(out, "{}", table::render(&header_refs, &rows))?;
    writeln!(
        out,
        "\nPaper's observation holds if N>16 helps little: cost shrinks only ~1/log N with N."
    )?;
    Ok(())
}
