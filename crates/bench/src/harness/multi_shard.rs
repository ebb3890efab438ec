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
//! and prints its `us/append`, the mean wall-clock cost of one forced
//! append per thread (CI's guard compares two such runs, with no more
//! appenders than cores: spreading appenders that each have a core over
//! more domains must not raise it), `--quick` shrinks the workload.

use std::io::{self, Write};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

use crate::table;

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

pub fn run(out: &mut impl Write, args: &[String]) -> io::Result<()> {
    let quick = args.iter().any(|a| a == "--quick");
    let logs = flag_value(args, "logs").unwrap_or(8).max(1);
    let single = flag_value(args, "shards");

    let ops: u64 = if quick { 300 } else { 3_000 };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    if let Some(shards) = single {
        // Single-configuration mode: CI's sharded-path guard reads the
        // `<figure> us/append` printed below, so keep that format.
        writeln!(
            out,
            "Sharded append scaling — single run: {shards} shard(s), {logs} appender \
             thread(s) x {ops} forced appends"
        )?;
        let r = run_round(shards, logs, ops);
        let per_append_us = r.secs * 1e6 / ops as f64;
        let throughput = r.appends as f64 / r.secs.max(1e-9);
        writeln!(
            out,
            "{} appends in {:.1} ms: {:.0} appends/sec, {:.2} us/append, {} device writes",
            r.appends,
            r.secs * 1e3,
            throughput,
            per_append_us,
            r.device_writes
        )?;
        return Ok(());
    }

    writeln!(
        out,
        "Sharded append scaling — {logs} appender threads x {ops} forced appends, \
         1/2/4/8 append domains"
    )?;
    writeln!(
        out,
        "(in-memory device pool: the sweep isolates lock/gate contention, not media)"
    )?;
    writeln!(out, "host parallelism: {cores} core(s)\n")?;

    let header = [
        "shards",
        "appends",
        "appends/sec",
        "us/append",
        "device writes",
        "elapsed (ms)",
    ];
    let mut rows = Vec::new();
    let mut throughputs = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let r = run_round(shards, logs, ops);
        let throughput = r.appends as f64 / r.secs.max(1e-9);
        throughputs.push(throughput);
        rows.push(vec![
            format!("{shards}"),
            format!("{}", r.appends),
            format!("{throughput:.0}"),
            format!("{:.2}", r.secs * 1e6 / ops as f64),
            format!("{}", r.device_writes),
            format!("{:.1}", r.secs * 1e3),
        ]);
    }
    write!(out, "{}", table::render(&header, &rows))?;

    let (t1, t4) = (throughputs[0], throughputs[2]);
    let speedup_4 = t4 / t1.max(1e-9);
    writeln!(
        out,
        "\n4-shard speedup over 1 shard at {logs} threads: {speedup_4:.2}x \
         ({t4:.0} vs {t1:.0} appends/sec) on {cores} core(s)"
    )?;
    Ok(())
}
