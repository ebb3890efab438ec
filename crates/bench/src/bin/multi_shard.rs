//! Multi-shard append scaling: forced-append throughput across 1/2/4/8
//! independent append domains.
//!
//! The pre-sharding service serialized every append on one state mutex
//! and one commit gate — more appender threads only meant more
//! contention. Partitioning the service by log-file id into shards gives
//! each domain its own lock, gate, open block and volume sequence, so
//! forced appends to different shards proceed in parallel. The headline
//! number is **appends per second** as the shard count grows with a fixed
//! thread count: flat before this change, near-linear (up to the host's
//! cores) after it.
//!
//! Flags: `--logs=K` sets the appender-thread count (default 8; each
//! thread owns one top-level log, so logs round-robin over shards),
//! `--shards=N` runs a single configuration instead of the 1/2/4/8 sweep
//! (used by CI's `bench_diff` guard: two single runs are diffed on the
//! `forced_append_us` cost scalar), `--quick` shrinks the workload,
//! `--json` writes `BENCH_multi_shard.json`.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use clio_bench::report::Report;
use clio_bench::table;
use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

struct RoundResult {
    appends: u64,
    device_writes: u64,
    secs: f64,
}

/// One measured round: `logs` appender threads, each issuing `ops` forced
/// appends to its own top-level log file, on a fresh service with
/// `shards` append domains. Logs get consecutive ids, so they round-robin
/// over the domains.
fn run_round(shards: usize, logs: usize, ops: u64) -> RoundResult {
    let cfg = ServiceConfig {
        trace_events: 0, // no span recording: the harness times the bare paths
        shards,
        ..ServiceConfig::default()
    };
    let svc = Arc::new(
        LogService::create(
            VolumeSeqId(1),
            Arc::new(MemDevicePool::new(cfg.block_size, 1 << 16)),
            cfg,
            Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
        )
        .expect("invariant: create on a fresh in-memory pool cannot fail"),
    );
    for t in 0..logs {
        svc.create_log(&format!("/s{t}"))
            .expect("invariant: fresh top-level path cannot collide");
    }
    svc.flush().expect("invariant: in-memory flush cannot fail");

    let writes_before = svc.obs().device_stats.write_ops();
    let barrier = Arc::new(Barrier::new(logs + 1));
    let mut handles = Vec::new();
    for t in 0..logs {
        let svc = svc.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let id = svc
                .resolve(&format!("/s{t}"))
                .expect("invariant: path was created above");
            let payload = [t as u8; 48];
            barrier.wait();
            for _ in 0..ops {
                svc.append(id, &payload, AppendOpts::forced())
                    .expect("invariant: in-memory append cannot fail");
            }
        }));
    }
    // Clock first: with more workers than cores this thread can sleep
    // through the whole round once the barrier lets them go.
    let start = Instant::now();
    barrier.wait();
    for h in handles {
        h.join().expect("invariant: appender thread does not panic");
    }
    let secs = start.elapsed().as_secs_f64();
    RoundResult {
        appends: logs as u64 * ops,
        device_writes: svc.obs().device_stats.write_ops() - writes_before,
        secs,
    }
}

fn flag_value(args: &[String], name: &str) -> Option<usize> {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("--{name}=")))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let logs = flag_value(&args, "logs").unwrap_or(8).max(1);
    let single = flag_value(&args, "shards");
    let mut report = Report::new(
        "multi_shard",
        "Sharded append domains — forced-append scaling across 1/2/4/8 shards",
    );

    let ops: u64 = if quick { 300 } else { 3_000 };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    report.scalar("host_cores", cores as u64);
    report.scalar("ops_per_thread", ops);
    report.scalar("logs", logs as u64);

    if let Some(shards) = single {
        // Single-configuration mode for CI's regression guard: emit the
        // per-append cost (a direction=up metric) under a shard-agnostic
        // key so two runs at different shard counts diff cleanly.
        println!(
            "Sharded append scaling — single run: {shards} shard(s), {logs} appender \
             thread(s) x {ops} forced appends"
        );
        let r = run_round(shards, logs, ops);
        let per_append_us = r.secs * 1e6 / ops as f64;
        let throughput = r.appends as f64 / r.secs.max(1e-9);
        println!(
            "{} appends in {:.1} ms: {:.0} appends/sec, {:.2} us/append, {} device writes",
            r.appends,
            r.secs * 1e3,
            throughput,
            per_append_us,
            r.device_writes
        );
        report.scalar("forced_append_us", per_append_us);
        report.note(&format!(
            "single-run mode at shards={shards}; forced_append_us is the mean wall-clock \
             cost of one forced append per thread — diff two runs with --direction=up, \
             with no more appenders than cores (--logs): spreading appenders that each \
             have a core over more domains must not raise it."
        ));
        report.emit();
        return;
    }

    println!(
        "Sharded append scaling — {logs} appender threads x {ops} forced appends, \
         1/2/4/8 append domains"
    );
    println!("(in-memory device pool: the sweep isolates lock/gate contention, not media)");
    println!("host parallelism: {cores} core(s)\n");

    let header = [
        "shards",
        "appends",
        "appends/sec",
        "us/append",
        "device writes",
        "elapsed (ms)",
    ];
    let mut rows = Vec::new();
    let mut per_shards: Vec<(usize, f64)> = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let r = run_round(shards, logs, ops);
        let throughput = r.appends as f64 / r.secs.max(1e-9);
        per_shards.push((shards, throughput));
        report.scalar(&format!("appends_per_sec_shards{shards}"), throughput);
        rows.push(vec![
            format!("{shards}"),
            format!("{}", r.appends),
            format!("{throughput:.0}"),
            format!("{:.2}", r.secs * 1e6 / ops as f64),
            format!("{}", r.device_writes),
            format!("{:.1}", r.secs * 1e3),
        ]);
    }
    print!("{}", table::render(&header, &rows));
    report.table("scaling", &header, &rows);

    let t1 = per_shards[0].1;
    let t4 = per_shards[2].1;
    let speedup_4 = t4 / t1.max(1e-9);
    report.scalar("speedup_shards4_vs_1", speedup_4);
    report.note(
        "appends/sec at a fixed thread count is the headline: one shard serializes every \
         forced append on one state lock and one commit gate; with N shards, appends to \
         different domains never contend, so throughput should grow toward min(N, cores)x.",
    );
    if cores == 1 {
        report.note(
            "host_cores == 1: the appender threads time-slice one core, so the sweep is \
             expected to stay flat — the shards remove contention, not CPU time.",
        );
    }
    report.emit();

    println!(
        "\n4-shard speedup over 1 shard at {logs} threads: {speedup_4:.2}x \
         ({t4:.0} vs {t1:.0} appends/sec) on {cores} core(s)"
    );
}
