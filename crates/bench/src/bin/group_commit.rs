//! Group-commit coalescing: forced-append cost under 1/2/4/8 concurrent
//! appender threads.
//!
//! Forced appends are the expensive operation of §2.3.1: each one must
//! reach stable storage before it is acknowledged. The group-commit
//! pipeline stages entries under a short lock and lets the first forced
//! waiter become a *leader* that waits for the forced appends announced
//! as arriving to stage, writes everything staged in one vectored device
//! write, and releases the covered followers. The headline number is
//! **appends per device write**: a lone appender is its own leader every
//! time and pays one device write per forced append (the 1-thread row,
//! ratio 1.00, is the baseline); appenders that overlap in time share
//! writes, so with two or more cores the ratio approaches the thread
//! count the cores can overlap.
//!
//! Flags: `--json` writes `BENCH_group_commit.json`; `--quick` shrinks
//! the workload for CI smoke runs (too short for the scheduler to spread
//! the threads over the cores: its ratios say nothing).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use clio_bench::report::Report;
use clio_bench::table;
use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_obs::{MetricValue, MetricsRegistry};
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    for s in reg.gather() {
        if s.name == name {
            if let MetricValue::Counter(v) = s.value {
                return v;
            }
        }
    }
    0
}

struct RoundResult {
    appends: u64,
    device_writes: u64,
    secs: f64,
    writes_saved: u64,
    batches: u64,
}

/// One measured round: `threads` appenders each issue `ops` forced
/// appends to their own log file on a fresh in-memory service.
fn run_round(threads: usize, ops: u64) -> RoundResult {
    let cfg = ServiceConfig {
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
    for t in 0..threads {
        svc.create_log(&format!("/gc{t}")).expect("create log");
    }
    svc.flush().expect("flush setup");

    let writes_before = svc.obs().device_stats.write_ops();
    let saved_before = counter(svc.metrics(), "clio_core_forced_writes_saved_total");
    let batches_before = counter(svc.metrics(), "clio_core_group_commit_batches_total");
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let svc = svc.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let id = svc.resolve(&format!("/gc{t}")).expect("resolve");
            let payload = [t as u8; 48];
            barrier.wait();
            for _ in 0..ops {
                svc.append(id, &payload, AppendOpts::forced())
                    .expect("forced append");
            }
        }));
    }
    // Clock first: with more appenders than cores this thread can sleep
    // through the whole round once the barrier lets them go.
    let start = Instant::now();
    barrier.wait();
    for h in handles {
        h.join().expect("appender thread");
    }
    let secs = start.elapsed().as_secs_f64();
    RoundResult {
        appends: threads as u64 * ops,
        device_writes: svc.obs().device_stats.write_ops() - writes_before,
        secs,
        writes_saved: counter(svc.metrics(), "clio_core_forced_writes_saved_total")
            .saturating_sub(saved_before),
        batches: counter(svc.metrics(), "clio_core_group_commit_batches_total")
            .saturating_sub(batches_before),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut report = Report::new(
        "group_commit",
        "Group commit — forced appends coalesced into vectored device writes",
    );

    // Long enough that a round outlasts thread placement: a round of a few
    // milliseconds often ends before the threads run on different cores.
    let ops: u64 = if quick { 200 } else { 20_000 };
    let thread_counts: &[usize] = &[1, 2, 4, 8];
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("Group-commit coalescing — {ops} forced appends/thread, default configuration");
    println!("(in-memory device pool: the ratio isolates write *count*, not media latency)");
    println!(
        "host parallelism: {cores} core(s) — batching needs appenders overlapping in time, \
         so at most that many share a write\n"
    );

    let header = [
        "threads",
        "appends",
        "device writes",
        "appends/write",
        "saved",
        "batches",
        "elapsed (ms)",
    ];
    let mut rows = Vec::new();
    let mut ratio_1t = 0.0f64;
    let mut ratio_4t = 0.0f64;
    let mut saved_4t = 0u64;
    for &t in thread_counts {
        let r = run_round(t, ops);
        let ratio = r.appends as f64 / r.device_writes.max(1) as f64;
        if t == 1 {
            ratio_1t = ratio;
        }
        if t == 4 {
            ratio_4t = ratio;
            saved_4t = r.writes_saved;
        }
        // The `_group` suffix is kept so `bench_diff` lines up with reports
        // from when there was a second mode to tell apart.
        report.scalar(&format!("appends_per_device_write_{t}t_group"), ratio);
        report.scalar(&format!("forced_writes_saved_{t}t_group"), r.writes_saved);
        rows.push(vec![
            format!("{t}"),
            format!("{}", r.appends),
            format!("{}", r.device_writes),
            format!("{ratio:.2}"),
            format!("{}", r.writes_saved),
            format!("{}", r.batches),
            format!("{:.1}", r.secs * 1e3),
        ]);
    }
    print!("{}", table::render(&header, &rows));

    report.scalar("ops_per_thread", ops);
    report.scalar("host_cores", cores as u64);
    report.table("coalescing", &header, &rows);
    report.note(
        "appends/write is the headline: a lone appender leads every commit itself and \
         pays one device write per forced append (the 1-thread baseline); concurrent \
         forced appenders share one vectored write, so the ratio grows with the \
         number of appenders the host's cores let overlap (host_cores).",
    );
    report.emit();

    println!(
        "\n4-thread appends per device write: {ratio_4t:.2} ({saved_4t} forced writes \
         saved) vs {ratio_1t:.2} for a lone appender"
    );
}
