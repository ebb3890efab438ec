//! §4 / §4.1: the history-based storage model's cache economics.
//!
//! Two reproductions:
//!
//! 1. The §4 arithmetic: with 100 ms per 1 KiB from the log device, 30 ms
//!    from a magnetic-disk cache and 1 ms from RAM, a RAM cache wins read
//!    performance whenever its hit ratio is at least ~70% of the disk
//!    cache's.
//! 2. The §4.1 feasibility check: over an Ousterhout-style trace (short
//!    file lifetimes, recency-skewed reads), a modest RAM cache reaches
//!    the hit ratios that make the history-based file server practical
//!    ("cache miss ratios of less than 10% are possible with a cache size
//!    of only 16 Mbytes").

use clio_bench::report::Report;
use clio_bench::table;
use clio_cache::{BlockCache, CacheKey};
use clio_costmodel::workload::{TraceEvent, TraceWorkload};
use clio_costmodel::CostModel;
use clio_types::BlockNo;

fn main() {
    let mut report = Report::new(
        "sec4_hbfs",
        "§4/§4.1 — history-based storage model cache economics",
    );
    crossover(&mut report);
    trace_hit_ratios(&mut report);
    report.emit();
}

fn crossover(report: &mut Report) {
    let m = CostModel::default();
    let h_disk = 0.9;
    let frac = m.hbfs_crossover_fraction(h_disk);
    let mut rows = Vec::new();
    for pct in [50u32, 60, 70, 80, 90, 100] {
        let h_ram = h_disk * pct as f64 / 100.0;
        let ram = m.hbfs_ram_read_us(h_ram) / 1000.0;
        let disk = m.hbfs_disk_read_us(h_disk) / 1000.0;
        rows.push(vec![
            format!("{pct}%"),
            format!("{ram:.1}"),
            format!("{disk:.1}"),
            if ram < disk {
                "RAM".into()
            } else {
                "disk".into()
            },
        ]);
    }
    println!("§4 — RAM vs magnetic-disk cache for a history-based application");
    println!(
        "(log-device miss 100 ms, disk cache 30 ms, RAM cache 1 ms per KiB; disk hit ratio 90%)\n"
    );
    let header = [
        "RAM hit ratio / disk's",
        "RAM read ms",
        "disk read ms",
        "winner",
    ];
    print!("{}", table::render(&header, &rows));
    println!(
        "\nAnalytic crossover: RAM wins above {:.1}% of the disk cache's hit ratio (paper: 70%).\n",
        100.0 * frac
    );
    report.scalar("crossover_fraction", frac);
    report.table("ram_vs_disk", &header, &rows);
}

fn trace_hit_ratios(report: &mut Report) {
    // Model each file as a handful of 1 KiB blocks; run the trace's reads
    // through an LRU of varying capacity and measure hit ratios.
    let trace = TraceWorkload::new(17).trace(4_000);
    let mut rows = Vec::new();
    for cache_kib in [64usize, 256, 1024, 4096, 16384] {
        let cache = BlockCache::new(cache_kib);
        let mut accesses = 0u64;
        for ev in &trace {
            match ev {
                TraceEvent::Create { .. } | TraceEvent::Delete { .. } => {}
                TraceEvent::Write { file, bytes } => {
                    // Writes populate the cache (the current state is the
                    // cached summary, §4).
                    for blk in 0..bytes.div_ceil(1024) {
                        cache.put(
                            CacheKey::new(0, BlockNo(file * 1024 + blk)),
                            std::sync::Arc::new(vec![]),
                        );
                    }
                }
                TraceEvent::Read { file, bytes } => {
                    for blk in 0..bytes.div_ceil(1024) {
                        accesses += 1;
                        let key = CacheKey::new(0, BlockNo(file * 1024 + blk));
                        if cache.get(key).is_none() {
                            cache.put(key, std::sync::Arc::new(vec![]));
                        }
                    }
                }
            }
        }
        let s = cache.stats();
        let hit = s.hit_ratio();
        let m = CostModel::default();
        rows.push(vec![
            format!("{} KiB", cache_kib),
            format!("{:.1}%", 100.0 * hit),
            format!("{:.1}%", 100.0 * (1.0 - hit)),
            format!("{:.1}", m.hbfs_ram_read_us(hit) / 1000.0),
        ]);
        let _ = accesses;
    }
    println!("§4.1 — RAM-cache hit ratio over an Ousterhout-style trace (4,000 file lifetimes)\n");
    let header = [
        "RAM cache size",
        "hit ratio",
        "miss ratio",
        "modelled read ms/KiB",
    ];
    print!("{}", table::render(&header, &rows));
    println!(
        "\nFeasibility holds if the miss ratio falls under ~10% at moderate cache sizes (§4.1)."
    );
    report.table("trace_hit_ratios", &header, &rows);
    report.note("Feasibility holds if the miss ratio falls under ~10% at moderate cache sizes.");
}
