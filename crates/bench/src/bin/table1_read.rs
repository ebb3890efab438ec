//! Table 1: measured cost of a log entry read, for different search
//! distances, given complete caching (N = 16).
//!
//! Paper's rows (distance, #entrymap entries read, #blocks read, time ms):
//! 0→(0,1,1.46), N→(1,3,2.71), N²→(3,5,3.82), N³→(5,7,5.06),
//! N⁴→(7,9,6.51), N⁵→(9,11,8.10). All blocks were served from the block
//! cache, so time ≈ IPC + 0.6 ms per cached block touched (§3.3.2).
//!
//! We plant one entry `d` blocks before the search start in a synthetic
//! volume, run the real locator, count entrymap entries and blocks
//! touched (including the final read of the target block), and model time
//! with the paper's constants.

use std::collections::BTreeSet;

use clio_bench::report::Report;
use clio_bench::synth::{SyntheticSource, SYNTH_FILE};
use clio_bench::table;
use clio_costmodel::CostModel;
use clio_entrymap::Locator;

fn main() {
    let mut report = Report::new(
        "table1_read",
        "Table 1 — measured cost of a log entry read vs search distance (complete caching, N=16)",
    );
    let n: u64 = 16;
    let model = CostModel::default();
    let paper = [
        ("0", 0u64, 1u64, 1.46f64),
        ("N", 1, 3, 2.71),
        ("N^2", 3, 5, 3.82),
        ("N^3", 5, 7, 5.06),
        ("N^4", 7, 9, 6.51),
        ("N^5", 9, 11, 8.10),
    ];
    let mut rows = Vec::new();
    for (i, (label, p_maps, p_blocks, p_ms)) in paper.iter().enumerate() {
        let d = n.pow(i as u32);
        let (maps, blocks) = if i == 0 {
            // Distance 0: the entry is in the block at hand — one block
            // read, no entrymap consultation.
            (0, 1)
        } else {
            let total = d + 2;
            let target = total - 1 - d;
            let placed: BTreeSet<u64> = [target].into_iter().collect();
            let src = SyntheticSource::new(n as usize, 1024, total, placed);
            let pending = src.pending();
            let mut loc = Locator::new(&src, Some(&pending));
            let got = loc
                .locate_before(&[SYNTH_FILE], total - 1)
                .expect("synthetic reads cannot fail");
            assert_eq!(got, Some(target));
            // blocks_read includes the final read of the target block —
            // the locator verifies its candidate (§2.1).
            (loc.stats.map_entries_examined, loc.stats.blocks_read)
        };
        let modelled = model.read_us(blocks, 0);
        // §3.3.2's flip side: the same read with nothing cached pays an
        // optical seek per block — "expected to cost several hundred
        // milliseconds".
        let cold = model.read_us(0, blocks);
        rows.push(vec![
            (*label).to_owned(),
            format!("{d}"),
            format!("{maps} (paper {p_maps})"),
            format!("{blocks} (paper {p_blocks})"),
            format!("{} (paper {p_ms:.2})", table::ms(modelled)),
            table::ms(cold),
        ]);
    }
    println!(
        "Table 1 — measured cost of a log entry read vs search distance (complete caching, N=16)"
    );
    println!(
        "time modelled at {} µs IPC + {} µs per cached block (§3.2, §3.3.2)\n",
        model.ipc_local_us, model.cached_block_us
    );
    let header = [
        "distance",
        "(blocks)",
        "# entrymap entries",
        "# blocks read",
        "time (ms)",
        "cold (ms)",
    ];
    print!("{}", table::render(&header, &rows));
    report.scalar("fanout", n);
    report.scalar("ipc_local_us", model.ipc_local_us);
    report.scalar("cached_block_us", model.cached_block_us);
    report.table("read_cost", &header, &rows);
    report.note("Cold column is §3.3.2's uncached case — an optical seek per block read.");
    println!(
        "\nShape check: each extra level of the search tree adds ~2 cached-block reads (~1.2 ms),"
    );
    println!("matching the paper's ~1.1–1.6 ms per row increment. The cold column is §3.3.2's");
    println!("uncached case — ~155 ms per block, 'several hundred milliseconds' per distant read.");
    report.emit();
}
