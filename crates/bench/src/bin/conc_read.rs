//! Concurrent read scaling: throughput of the lock-free read path under
//! 1/2/4/8 reader threads.
//!
//! The paper's medium is write-once, so sealed blocks are immutable and
//! reads need no coordination with the appender (§2, §3.3). This harness
//! measures what that buys on a modern multi-core host: a volume is
//! pre-built on an in-memory device pool, the sharded block cache is
//! warmed, then T threads hammer random `read_entry` calls mixed with
//! short cursor scans. Aggregate reads/sec should scale with T because
//! readers share only (a) the published snapshot `Arc` and (b) the cache's
//! per-shard mutexes.
//!
//! Flags: `--json` writes `BENCH_conc_read.json`; `--quick` shrinks the
//! workload for CI smoke runs; `--shards=1` restores the single global
//! LRU (the contention baseline).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use clio_bench::report::Report;
use clio_bench::table;
use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_testkit::sync::atomic::{AtomicU64, Ordering};
use clio_types::{EntryAddr, ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

/// One thread's share of the workload: point reads with a splitmix-walked
/// index, plus a short cursor scan every `SCAN_EVERY` point reads. Returns
/// the number of entries read.
fn reader_work(svc: &LogService, addrs: &[EntryAddr], ops: u64, seed: u64, reads: &AtomicU64) {
    const SCAN_EVERY: u64 = 512;
    const SCAN_LEN: usize = 24;
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut done = 0u64;
    for i in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = addrs[(x % addrs.len() as u64) as usize];
        let e = svc.read_entry(addr).expect("prebuilt entry must read");
        assert!(!e.data.is_empty());
        done += 1;
        if i % SCAN_EVERY == SCAN_EVERY - 1 {
            let mut cur = svc.cursor("/bench").expect("cursor");
            for _ in 0..SCAN_LEN {
                match cur.next().expect("scan") {
                    Some(_) => done += 1,
                    None => break,
                }
            }
        }
    }
    reads.fetch_add(done, Ordering::Relaxed);
}

fn run_threads(
    svc: &Arc<LogService>,
    addrs: &Arc<Vec<EntryAddr>>,
    threads: usize,
    ops: u64,
) -> (u64, f64) {
    let total_reads = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let svc = svc.clone();
        let addrs = addrs.clone();
        let total_reads = total_reads.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            reader_work(&svc, &addrs, ops, t as u64 + 1, &total_reads);
        }));
    }
    // Clock first: with more workers than cores this thread can sleep
    // through the whole round once the barrier lets them go.
    let start = Instant::now();
    barrier.wait();
    for h in handles {
        h.join().expect("reader thread");
    }
    let secs = start.elapsed().as_secs_f64();
    (total_reads.load(Ordering::Relaxed), secs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let shards = args
        .iter()
        .find_map(|a| a.strip_prefix("--shards=").and_then(|v| v.parse().ok()))
        .unwrap_or(8usize);
    let mut report = Report::new(
        "conc_read",
        "Concurrent read scaling — immutable snapshots + sharded block cache",
    );

    let entries: u64 = if quick { 800 } else { 4_000 };
    let ops: u64 = if quick { 4_000 } else { 40_000 };
    let thread_counts: &[usize] = &[1, 2, 4, 8];

    // Build the volume: every entry fits the (default 1024-block) cache
    // after the warm-up pass, so the runs measure pure read-path
    // concurrency, not device speed.
    let cfg = ServiceConfig {
        cache_shards: shards,
        trace_events: 0, // no span recording: the harness times the bare paths
        shards: 1,
        ..ServiceConfig::default()
    };
    let svc = Arc::new(
        LogService::create(
            VolumeSeqId(1),
            Arc::new(MemDevicePool::new(cfg.block_size, 1 << 16)),
            cfg,
            Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
        )
        .expect("create service"),
    );
    svc.create_log("/bench").expect("create log");
    let id = svc.resolve("/bench").expect("resolve");
    let mut addrs = Vec::with_capacity(entries as usize);
    for i in 0..entries {
        let payload = [(i % 251) as u8; 64];
        addrs.push(
            svc.append(id, &payload, AppendOpts::standard())
                .expect("append")
                .addr,
        );
    }
    svc.flush().expect("flush");
    let addrs = Arc::new(addrs);

    // Warm the cache with one full pass.
    for a in addrs.iter() {
        svc.read_entry(*a).expect("warm read");
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "Concurrent read scaling — {entries} entries, {ops} point reads/thread, {} cache shards",
        svc.cache().shard_count()
    );
    println!("(warm cache: every data and entrymap block is resident before the timed runs)");
    println!("host parallelism: {cores} core(s) — aggregate reads/sec can only scale up to that\n");

    let mut rows = Vec::new();
    let mut base_rps = 0.0f64;
    let mut rps_by_threads = Vec::new();
    for &t in thread_counts {
        let (reads, secs) = run_threads(&svc, &addrs, t, ops);
        let rps = reads as f64 / secs;
        if t == 1 {
            base_rps = rps;
        }
        let speedup = if base_rps > 0.0 { rps / base_rps } else { 0.0 };
        rps_by_threads.push((t, rps, speedup));
        rows.push(vec![
            format!("{t}"),
            format!("{reads}"),
            format!("{:.1}", secs * 1e3),
            format!("{:.0}", rps),
            format!("{speedup:.2}x"),
        ]);
    }

    let header = [
        "threads",
        "entries read",
        "elapsed (ms)",
        "reads/sec",
        "speedup",
    ];
    print!("{}", table::render(&header, &rows));

    let cache = svc.cache();
    let stats = cache.stats();
    println!(
        "\ncache: {} shards, {} resident, {} hits / {} misses ({} duplicate loads coalesced away)",
        cache.shard_count(),
        cache.len(),
        stats.hits,
        stats.misses,
        stats.duplicate_loads,
    );

    report.scalar("entries", entries);
    report.scalar("ops_per_thread", ops);
    report.scalar("host_cores", cores as u64);
    report.scalar("cache_shards", cache.shard_count() as u64);
    report.scalar("cache_hits", stats.hits);
    report.scalar("cache_misses", stats.misses);
    report.scalar("duplicate_loads", stats.duplicate_loads);
    for (t, rps, speedup) in &rps_by_threads {
        report.scalar(&format!("reads_per_sec_{t}t"), *rps);
        report.scalar(&format!("speedup_{t}t"), *speedup);
    }
    report.table("scaling", &header, &rows);
    report.note(
        "Reads run against immutable published snapshots and never take the append \
         mutex; the block cache is sharded, so warm reads contend only on per-shard LRU locks.",
    );
    report.note(
        "Speedup is bounded by host_cores: on a multi-core host 4 threads should reach \
         >=2x the single-thread rate; on a single core the signal is the flat line — \
         aggregate throughput holding steady at 8 threads means no lock convoy serializes \
         readers beyond the CPU limit.",
    );
    report.emit();

    let four = rps_by_threads
        .iter()
        .find(|(t, _, _)| *t == 4)
        .map(|(_, _, s)| *s)
        .unwrap_or(0.0);
    println!(
        "\n4-thread speedup over 1 thread: {four:.2}x (lock-free snapshot reads, sharded LRU)"
    );
}
