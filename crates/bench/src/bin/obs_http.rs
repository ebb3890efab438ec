//! Ops-plane endpoint under load: scrape latency of `/metrics`,
//! `/metrics.json` and `/trace` while appenders hammer the service.
//!
//! The observability endpoint must stay cheap and safe to scrape in
//! production: each scrape snapshots the registry (short leaf locks) and
//! the trace ring (one mutex), so a scraper polling every few seconds
//! should never perturb the append path. This harness runs forced
//! appenders in the background and measures end-to-end scrape latency —
//! TCP connect, request, full body — per route, over a plain
//! `std::net::TcpStream` exactly like a scraper would.
//!
//! Flags: `--json` writes `BENCH_obs_http.json`; `--quick` shrinks the
//! workload for CI smoke runs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use clio_bench::report::Report;
use clio_bench::table;
use clio_core::server::LogServer;
use clio_core::service::LogService;
use clio_core::ServiceConfig;
use clio_testkit::sync::atomic::{AtomicBool, Ordering};
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

/// Reports a fatal harness error and exits; scrape numbers from a
/// half-broken run would be worse than no numbers.
fn die(msg: String) -> ! {
    eprintln!("obs_http: {msg}");
    std::process::exit(1);
}

/// One GET over a fresh connection; returns (latency_us, body_bytes).
fn scrape(addr: SocketAddr, path: &str) -> (u64, usize) {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr).unwrap_or_else(|e| die(format!("connect {addr}: {e}")));
    write!(s, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")
        .unwrap_or_else(|e| die(format!("send request for {path}: {e}")));
    let mut response = String::new();
    s.read_to_string(&mut response)
        .unwrap_or_else(|e| die(format!("read response for {path}: {e}")));
    let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "scrape {path} failed: {}",
        response.lines().next().unwrap_or("")
    );
    let body_len = response
        .split_once("\r\n\r\n")
        .map_or(0, |(_, body)| body.len());
    (us, body_len)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut report = Report::new(
        "obs_http",
        "Ops plane — scrape latency of the HTTP observability endpoint under append load",
    );

    let scrapes_per_route: usize = if quick { 25 } else { 400 };
    let appenders: usize = 2;

    let cfg = ServiceConfig::default().with_http_addr("127.0.0.1:0");
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(cfg.block_size, 1 << 16)),
        cfg,
        Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
    )
    .unwrap_or_else(|e| die(format!("create service: {e:?}")));
    for t in 0..appenders {
        svc.create_log(&format!("/obs{t}"))
            .unwrap_or_else(|e| die(format!("create log /obs{t}: {e:?}")));
    }
    let server = LogServer::spawn(svc);
    let addr = server
        .http_addr()
        .unwrap_or_else(|| die("endpoint failed to bind 127.0.0.1:0".to_owned()));

    println!("Ops-plane scrape latency — endpoint at {addr}");
    println!(
        "({appenders} forced appenders in the background; {scrapes_per_route} scrapes/route)\n"
    );

    // Background load: forced appends through the IPC boundary, so the
    // scrapes compete with real commit-gate and device activity.
    let stop = Arc::new(AtomicBool::new(false));
    let mut load = Vec::new();
    for t in 0..appenders {
        let client = server.client();
        let stop = stop.clone();
        load.push(std::thread::spawn(move || {
            let path = format!("/obs{t}");
            let payload = [t as u8; 64];
            let mut appends = 0u64;
            while !stop.load(Ordering::Relaxed) {
                client
                    .append_sync(&path, &payload)
                    .unwrap_or_else(|e| die(format!("forced append to {path}: {e:?}")));
                appends += 1;
            }
            appends
        }));
    }

    let header = ["route", "p50 (us)", "p99 (us)", "max (us)", "body (bytes)"];
    let mut rows = Vec::new();
    let routes = ["/metrics", "/metrics.json", "/trace", "/health"];
    for route in routes {
        let mut lat: Vec<u64> = Vec::with_capacity(scrapes_per_route);
        let mut body = 0usize;
        for _ in 0..scrapes_per_route {
            let (us, len) = scrape(addr, route);
            lat.push(us);
            body = body.max(len);
        }
        lat.sort_unstable();
        let p50 = percentile(&lat, 0.50);
        let p99 = percentile(&lat, 0.99);
        let max = *lat
            .last()
            .expect("invariant: the loop above pushed scrapes_per_route >= 1 latencies");
        let key = route.trim_start_matches('/').replace('.', "_");
        report.scalar(&format!("{key}_p50_us"), p50);
        report.scalar(&format!("{key}_p99_us"), p99);
        report.scalar(&format!("{key}_body_bytes"), body as u64);
        rows.push(vec![
            route.to_owned(),
            format!("{p50}"),
            format!("{p99}"),
            format!("{max}"),
            format!("{body}"),
        ]);
    }
    stop.store(true, Ordering::Relaxed);
    let appends: u64 = load
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| die("appender thread panicked".to_owned()))
        })
        .sum();

    print!("{}", table::render(&header, &rows));
    println!("\nbackground forced appends completed during the run: {appends}");

    report.scalar("scrapes_per_route", scrapes_per_route as u64);
    report.scalar("background_appends", appends);
    report.table("scrape_latency", &header, &rows);
    report.note(
        "Scrape latency includes TCP connect + a full registry/trace snapshot; it should \
         sit well under a millisecond-scale scrape interval and never block appenders \
         (the endpoint takes only leaf locks).",
    );
    report.emit();

    server.shutdown();
}
