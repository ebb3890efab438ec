//! Every event is counted once, and each coarser series is the sum of its
//! stripes: service totals of shard or log series, the space series of
//! the shards' accounting. A scrape reads those words and takes no
//! append lock.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_device::{RamTailDevice, SharedDevice};
use clio_obs::{MetricValue, MetricsRegistry};
use clio_types::{LogFileId, ManualClock, Timestamp, VolumeSeqId};
use clio_volume::{DevicePool, MemDevicePool, RecordingPool};

fn service(shards: usize, pool: Arc<dyn DevicePool>) -> Arc<LogService> {
    let clock = Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)));
    let cfg = ServiceConfig::small().with_shards(shards);
    Arc::new(LogService::create(VolumeSeqId(7), pool, cfg, clock).unwrap())
}

fn worm_pool() -> Arc<dyn DevicePool> {
    Arc::new(MemDevicePool::new(256, 4096))
}

/// Counter `family` summed over its label sets.
fn count(reg: &MetricsRegistry, family: &str) -> u64 {
    let samples = reg.gather();
    let mut found = samples.iter().filter(|s| s.name == family).peekable();
    assert!(found.peek().is_some(), "no series of {family}");
    found
        .map(|s| match s.value {
            MetricValue::Counter(v) => v,
            _ => panic!("{family} is not a counter"),
        })
        .sum()
}

/// Histogram `family`'s (count, sum) summed over its label sets.
fn hist(reg: &MetricsRegistry, family: &str) -> (u64, u64) {
    let samples = reg.gather();
    let mut found = samples.iter().filter(|s| s.name == family).peekable();
    assert!(found.peek().is_some(), "no series of {family}");
    found.fold((0, 0), |(n, sum), s| match &s.value {
        MetricValue::Histogram(h) => (n + h.count, sum + h.sum),
        _ => panic!("{family} is not a histogram"),
    })
}

fn check_totals(shards: usize) {
    let svc = service(shards, worm_pool());
    let logs: Vec<_> = (0..6)
        .map(|i| svc.create_log(&format!("/l{i}")).unwrap())
        .collect();
    let mut ok = 0u64;
    for i in 0..120u32 {
        let opts = if i % 7 == 0 {
            AppendOpts::forced()
        } else {
            AppendOpts::standard()
        };
        svc.append(logs[i as usize % logs.len()], &i.to_le_bytes(), opts)
            .unwrap();
        ok += 1;
    }
    let items: Vec<(String, Vec<u8>)> = (0..6).map(|i| (format!("/l{i}"), vec![i; 9])).collect();
    svc.append_batch(&items, AppendOpts::standard()).unwrap();
    svc.append_batch(&items[..3], AppendOpts::forced()).unwrap();
    ok += 9;
    // A log id the catalog does not know: routed, then refused.
    assert!(svc
        .append(LogFileId(4000), b"nowhere", AppendOpts::forced())
        .is_err());
    svc.flush().unwrap();

    let reg = svc.metrics();
    assert_eq!(
        count(reg, "clio_core_appends_total"),
        ok,
        "{shards} shard(s)"
    );
    assert_eq!(count(reg, "clio_shard_appends_total"), ok);
    assert_eq!(count(reg, "clio_log_appends_total"), ok);
    assert_eq!(count(reg, "clio_core_append_errors_total"), 1);
    let latency = hist(reg, "clio_core_append_latency_ns");
    assert_eq!(latency.0, ok);
    assert_eq!(latency, hist(reg, "clio_log_append_latency_ns"));
    let commits = count(reg, "clio_shard_commits_total");
    assert!(commits > 0);
    assert_eq!(count(reg, "clio_core_group_commit_batches_total"), commits);
    let batch = hist(reg, "clio_shard_commit_batch_blocks");
    assert_eq!(batch.0, commits);
    assert_eq!(hist(reg, "clio_core_group_commit_batch_blocks"), batch);

    // Pure WORM after a flush: every sealed block is wholly accounted.
    let r = svc.report();
    assert_eq!(r.entries, ok);
    assert_eq!(r.device_bytes, r.blocks_sealed * 256, "{shards} shard(s)");
    assert_eq!(count(reg, "clio_space_device_bytes"), r.device_bytes);
    assert_eq!(count(reg, "clio_space_entries"), ok);
}

#[test]
fn totals_equal_the_sum_of_their_parts_on_one_shard() {
    check_totals(1);
}

#[test]
fn totals_equal_the_sum_of_their_parts_on_four_shards() {
    check_totals(4);
}

/// Two threads make the first append to one log at once; the registry
/// creates the log's series in one of them and adopts it into the totals
/// once.
#[test]
fn racing_first_appends_to_a_log_count_once() {
    let svc = service(2, worm_pool());
    let rounds = 40u64;
    for round in 0..rounds {
        let id = svc.create_log(&format!("/race{round}")).unwrap();
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    gate.wait();
                    svc.append(id, b"first", AppendOpts::standard()).unwrap();
                });
            }
        });
        let reg = svc.metrics();
        assert_eq!(count(reg, "clio_core_appends_total"), 2 * (round + 1));
        assert_eq!(count(reg, "clio_shard_appends_total"), 2 * (round + 1));
        assert_eq!(hist(reg, "clio_core_append_latency_ns").0, 2 * (round + 1));
    }
}

/// `/metrics` and the space report read counters, never a shard's state:
/// all three finish while every append lock is held.
#[test]
fn a_scrape_takes_no_append_lock() {
    let svc = service(2, worm_pool());
    let log = svc.create_log("/scraped").unwrap();
    for i in 0..40u32 {
        svc.append(log, &i.to_le_bytes(), AppendOpts::forced())
            .unwrap();
    }
    let (tx, rx) = mpsc::channel();
    let scraper = svc.while_append_locked(|| {
        let svc = svc.clone();
        let scraper = std::thread::spawn(move || {
            let text = svc.metrics_text();
            let json = svc.metrics_json();
            let report = svc.report();
            tx.send((text, json, report)).unwrap();
        });
        let (text, json, report) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a scrape blocked on an append lock");
        assert!(text.contains("clio_space_entries 40"));
        assert!(json.contains("clio_space_entries"));
        assert_eq!(report.entries, 40);
        scraper
    });
    scraper.join().expect("the scrape thread panicked");
}

/// A commit that stages the open block as a RAM tail hands the device
/// that block, and records it in the commit histograms.
#[test]
fn a_ram_tail_commit_records_its_tail_block() {
    let pool = Arc::new(RecordingPool::wrapping(worm_pool(), |base| {
        Arc::new(RamTailDevice::new(base)) as SharedDevice
    }));
    let svc = service(1, pool);
    let log = svc.create_log("/tail").unwrap();
    let dev = svc.obs().device_stats.clone();
    let reg = svc.metrics();
    let commits = count(reg, "clio_shard_commits_total");
    let (shard_blocks, core_blocks) = (
        hist(reg, "clio_shard_commit_batch_blocks").1,
        hist(reg, "clio_core_group_commit_batch_blocks").1,
    );
    let handed = || dev.tail_rewrites.get() + dev.appends.get();
    let handed_before = handed();
    for i in 0..10u32 {
        svc.append(log, &i.to_le_bytes(), AppendOpts::forced())
            .unwrap();
    }
    assert_eq!(count(reg, "clio_shard_commits_total") - commits, 10);
    let handed = handed() - handed_before;
    assert!(handed >= 10, "each commit staged its tail");
    let shard = hist(reg, "clio_shard_commit_batch_blocks").1 - shard_blocks;
    let core = hist(reg, "clio_core_group_commit_batch_blocks").1 - core_blocks;
    assert_eq!((shard, core), (handed, handed));
}
