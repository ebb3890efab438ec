//! End-to-end test of the unified observability layer: one service driven
//! through appends, reads, a cold-start locate and a crash recovery must
//! leave a registry whose exposition shows every layer's activity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_obs::{AttrValue, MetricValue, MetricsRegistry, Span};
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::{MemDevicePool, RecordingPool};

fn clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)))
}

fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    for s in reg.gather() {
        if s.name == name {
            if let MetricValue::Counter(v) = s.value {
                return v;
            }
            panic!("{name} is not a counter");
        }
    }
    panic!("no metric named {name}");
}

fn gauge(reg: &MetricsRegistry, name: &str) -> i64 {
    for s in reg.gather() {
        if s.name == name {
            if let MetricValue::Gauge(v) = s.value {
                return v;
            }
            panic!("{name} is not a gauge");
        }
    }
    panic!("no metric named {name}");
}

fn histogram(reg: &MetricsRegistry, name: &str) -> clio_obs::HistSnapshot {
    for s in reg.gather() {
        if s.name == name {
            if let MetricValue::Histogram(h) = s.value {
                return *h;
            }
            panic!("{name} is not a histogram");
        }
    }
    panic!("no metric named {name}");
}

#[test]
fn one_service_lifetime_populates_every_layer() {
    let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(256, 4096))));
    let clock = clock();
    let cfg = ServiceConfig::small();
    let svc = LogService::create(VolumeSeqId(1), pool.clone(), cfg.clone(), clock.clone()).unwrap();

    // Appends (mixed buffered/forced) and forward reads.
    svc.create_log("/obs").unwrap();
    for i in 0..60u32 {
        let opts = if i % 10 == 0 {
            AppendOpts::forced()
        } else {
            AppendOpts::standard()
        };
        svc.append_path("/obs", format!("event-{i}").as_bytes(), opts)
            .unwrap();
    }
    svc.flush().unwrap();
    let mut cur = svc.cursor("/obs").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 60);

    // Cold-start locate: drop the cache, then search backwards from the
    // end — the locator must descend the entrymap tree from the device.
    svc.cache().clear();
    let mut cur = svc.cursor_from_end("/obs").unwrap();
    assert!(cur.prev().unwrap().is_some());

    let reg = svc.metrics().clone();
    // Device layer: op counts flowed through the instrumented pool.
    assert!(counter(&reg, "clio_device_appends_total") > 0);
    assert!(counter(&reg, "clio_device_reads_total") > 0);
    // Cache layer: warm reads hit, the post-clear read missed.
    assert!(counter(&reg, "clio_cache_hits_total") > 0);
    assert!(counter(&reg, "clio_cache_misses_total") > 0);
    // Core spans: appends and reads counted, none failed.
    assert_eq!(counter(&reg, "clio_core_appends_total"), 60);
    assert_eq!(counter(&reg, "clio_core_append_errors_total"), 0);
    assert!(counter(&reg, "clio_core_reads_total") > 0);
    assert!(counter(&reg, "clio_core_locates_total") > 0);

    // Latency histograms have plausible shapes.
    for name in [
        "clio_core_append_latency_ns",
        "clio_core_read_latency_ns",
        "clio_device_append_latency_ns",
    ] {
        let h = histogram(&reg, name);
        assert!(h.count > 0, "{name} recorded nothing");
        assert!(h.min <= h.p50() && h.p50() <= h.p90(), "{name} p50/p90");
        assert!(h.p90() <= h.p99() && h.p99() <= h.max, "{name} p99/max");
        assert!(
            h.sum >= h.count * h.min && h.sum <= h.count * h.max,
            "{name} sum"
        );
    }
    // The locate-depth histogram saw real tree descents.
    assert!(histogram(&reg, "clio_core_locate_depth").count > 0);

    // Text exposition carries all of it, space counters included.
    let text = svc.metrics_text();
    assert!(text.contains("# TYPE clio_device_appends_total counter"));
    assert!(text.contains("clio_core_append_latency_ns_bucket"));
    assert!(text.contains("clio_space_entries"));
    assert_eq!(counter(&reg, "clio_space_entries"), 60);

    // The op trace saw appends, reads and locates.
    let dump = svc.trace_dump();
    assert!(dump.contains("append"), "trace dump:\n{dump}");
    assert!(dump.contains("read"), "trace dump:\n{dump}");
    assert!(dump.contains("locate"), "trace dump:\n{dump}");

    // Crash: recover from the raw devices and check the recovery metrics.
    drop(svc);
    let (svc, report) = LogService::recover(pool.devices(), pool.clone(), cfg, clock).unwrap();
    let phases = [
        report.setup_us,
        report.end_locate_us,
        report.rebuild_us,
        report.catalog_us,
        report.assemble_us,
    ];
    assert!(phases.iter().all(|&us| us >= 1), "{report:?}");
    // The phases meet at shared readings, so they sum to the total, up to
    // the sub-µs part each phase truncates or floors.
    let sum: u64 = phases.iter().sum();
    assert!(
        sum <= report.total_us && report.total_us <= sum + 5,
        "{report:?}"
    );

    let reg = svc.metrics().clone();
    assert_eq!(gauge(&reg, "clio_recovery_volumes"), 1);
    assert!(gauge(&reg, "clio_recovery_rebuild_blocks_read") >= 0);
    assert!(gauge(&reg, "clio_recovery_total_us") >= 1);
    assert_eq!(
        gauge(&reg, "clio_recovery_catalog_records"),
        i64::try_from(report.catalog_records).unwrap()
    );
    // The recovered service read blocks through its own instrumented pool.
    assert!(counter(&reg, "clio_device_reads_total") > 0);
    // Recovery read the catalog log through the service's reader, but not
    // as a service read: the op series start at zero.
    assert_eq!(counter(&reg, "clio_core_reads_total"), 0);
    assert_eq!(counter(&reg, "clio_core_locates_total"), 0);
    assert_eq!(histogram(&reg, "clio_core_locate_blocks").count, 0);

    // Data survived; reads on the recovered service feed its registry.
    let mut cur = svc.cursor("/obs").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 60);
    assert!(counter(&reg, "clio_core_reads_total") > 0);

    // JSON exposition parses with the in-tree decoder and exposes the
    // recovery gauges and a histogram object.
    let json = svc.metrics_json();
    let v = clio_obs::json::parse(&json).expect("metrics JSON parses");
    let total = v
        .get("clio_recovery_total_us")
        .and_then(clio_obs::json::Value::as_i64)
        .expect("recovery total gauge in JSON");
    assert!(total >= 1);
    let h = v
        .get("clio_device_read_latency_ns")
        .expect("device read histogram in JSON");
    assert!(h.get("count").and_then(clio_obs::json::Value::as_i64) > Some(0));
    assert!(h.get("p50").is_some() && h.get("p99").is_some());
}

#[test]
fn server_answers_stats_requests() {
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(256, 4096)),
        ServiceConfig::small(),
        clock(),
    )
    .unwrap();
    svc.create_log("/s").unwrap();
    let server = clio_core::server::LogServer::spawn(svc, None);
    let client = server.client();
    client.append_sync("/s", b"one entry").unwrap();

    let text = client.call(|s| Ok(s.metrics_text())).unwrap();
    assert!(text.contains("clio_device_appends_total"));
    assert!(text.contains("# TYPE"));

    let json = client.call(|s| Ok(s.metrics_json())).unwrap();
    let v = clio_obs::json::parse(&json).expect("stats JSON parses");
    assert!(
        v.get("clio_core_appends_total")
            .and_then(clio_obs::json::Value::as_i64)
            >= Some(1)
    );
    server.shutdown();
}

#[test]
fn tracing_can_be_disabled_by_config() {
    let cfg = ServiceConfig {
        trace_events: 0,
        ..ServiceConfig::small()
    };
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(256, 4096)),
        cfg,
        clock(),
    )
    .unwrap();
    svc.create_log("/quiet").unwrap();
    svc.append_path("/quiet", b"x", AppendOpts::standard())
        .unwrap();
    // Metrics still flow; only the trace ring is off.
    assert!(counter(svc.metrics(), "clio_core_appends_total") == 1);
    assert!(svc.obs().trace().is_empty());
}

#[test]
fn flush_republishes_when_only_the_sealed_queue_advanced() {
    let cfg = ServiceConfig::small();
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(256, 4096)),
        cfg,
        clock(),
    )
    .unwrap();
    svc.create_log("/q").unwrap();
    // Fill whole blocks with buffered entries: they seal into the
    // in-memory queue, the device end does not move.
    for i in 0..12u32 {
        let mut p = format!("q{i}:").into_bytes();
        p.resize(64, b'q');
        svc.append_path("/q", &p, AppendOpts::standard()).unwrap();
    }
    let dev_end_before = svc.volumes().active().data_end();
    // The queue-depth gauge shows exactly the blocks sealed but unwritten.
    let queued = gauge(svc.metrics(), "clio_core_shard0_sealed_queue_blocks");
    assert!(
        queued > 0,
        "whole blocks of buffered entries must be queued"
    );
    assert_eq!(
        queued as u64,
        svc.report().blocks_sealed - dev_end_before,
        "gauge disagrees with sealed-but-unwritten blocks"
    );
    let publishes_before = counter(svc.metrics(), "clio_core_view_publishes_total");
    let device_appends_before = counter(svc.metrics(), "clio_device_appends_total");
    // Read-your-writes from the in-memory queue, before any device write.
    let mut cur = svc.cursor("/q").unwrap();
    assert_eq!(
        cur.collect_remaining().unwrap().len(),
        12,
        "queued sealed blocks must be readable before the flush"
    );

    svc.flush().unwrap();

    // The flush drained queued sealed blocks onto the device and
    // republished the snapshot — even though nothing else changed.
    assert!(
        svc.volumes().active().data_end() > dev_end_before,
        "flush did not advance the device watermark"
    );
    assert!(
        counter(svc.metrics(), "clio_core_view_publishes_total") > publishes_before,
        "flush did not republish the read snapshot"
    );
    assert!(counter(svc.metrics(), "clio_device_appends_total") > device_appends_before);
    // The drain emptied the queue, and the exposition says so.
    assert_eq!(
        gauge(svc.metrics(), "clio_core_shard0_sealed_queue_blocks"),
        0
    );
    assert!(svc
        .metrics_text()
        .contains("clio_core_shard0_sealed_queue_blocks 0"));
    // Group-commit collectors saw the batch.
    assert!(counter(svc.metrics(), "clio_core_group_commit_batches_total") >= 1);
    assert!(histogram(svc.metrics(), "clio_core_group_commit_batch_blocks").count >= 1);

    // An idempotent flush changes nothing a reader could see, so it
    // publishes nothing.
    let publishes = counter(svc.metrics(), "clio_core_view_publishes_total");
    svc.flush().unwrap();
    assert_eq!(
        counter(svc.metrics(), "clio_core_view_publishes_total"),
        publishes
    );

    // Everything reads back after the flush.
    let mut cur = svc.cursor("/q").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 12);
}

fn payload(i: u32) -> Vec<u8> {
    format!("entry-{i:06}-{}", "x".repeat(24)).into_bytes()
}

/// The deterministic tripwire for "verify a block once per visit": a
/// dense forward scan of E entries over B blocks asks the cache for one
/// block per block visited, one map per entrymap group crossed, and the
/// continuation block of each entry that fragments — it used to ask twice
/// per *entry*, and then (before the end-of-block locate handed the block
/// it verified to the scan, and the cursor remembered the maps it had
/// read) twice per block plus two maps per locate. Device reads are what
/// they always were: each block once.
#[test]
fn dense_scan_looks_each_block_up_once() {
    const ENTRIES: u32 = 400;
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(256, 4096)),
        ServiceConfig {
            cache_blocks: 1024,
            ..ServiceConfig::small()
        },
        clock(),
    )
    .unwrap();
    svc.create_log("/audit").unwrap();
    for i in 0..ENTRIES {
        svc.append_path("/audit", &payload(i), AppendOpts::standard())
            .unwrap();
    }
    svc.flush().unwrap();
    let blocks = svc.volumes().active().data_end();
    assert!(
        u64::from(ENTRIES) >= 4 * blocks,
        "the scan must be dense: {ENTRIES} entries in {blocks} blocks"
    );

    // Cold cache, so device reads are countable too.
    let reg = svc.metrics().clone();
    svc.cache().clear();
    let cache_before = svc.cache().stats();
    let device_before = counter(&reg, "clio_device_reads_total");
    let locates_before = counter(&reg, "clio_core_locates_total");
    let locate_blocks_before = histogram(&reg, "clio_core_locate_blocks").sum;

    let mut cur = svc.cursor("/audit").unwrap();
    let got = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), ENTRIES as usize);
    assert!(got.iter().zip(0..).all(|(e, i)| e.data == payload(i)));

    let cache = svc.cache().stats();
    let misses = cache.misses - cache_before.misses;
    let lookups = cache.hits - cache_before.hits + misses;
    let locates = counter(&reg, "clio_core_locates_total") - locates_before;
    let locate_blocks = histogram(&reg, "clio_core_locate_blocks").sum - locate_blocks_before;
    println!(
        "dense scan: {ENTRIES} entries, {blocks} blocks, {lookups} cache lookups, \
         {locates} locates reading {locate_blocks} blocks"
    );
    // The block an end-of-block locate verifies *is* the next visit, so
    // what a scan looks up beyond its locates' reads is its first block
    // and one continuation block per fragmented entry (fewer than one per
    // block) ...
    assert!(
        lookups <= blocks + locate_blocks,
        "{lookups} cache lookups for {blocks} blocks, {locates} locates reading {locate_blocks} blocks"
    );
    // ... and a locate reads its target plus, once per group, a map: one
    // level-1 map per 4 blocks at this fanout, a level-2 map per 16.
    assert!(
        locate_blocks <= blocks + blocks / 3,
        "{locates} locates read {locate_blocks} blocks for {blocks} blocks"
    );
    assert!(
        lookups < u64::from(ENTRIES),
        "{lookups} cache lookups for {ENTRIES} entries: the scan is back to per-entry lookups"
    );
    // Every block is loaded from the device exactly once, as before.
    let device_reads = counter(&reg, "clio_device_reads_total") - device_before;
    assert_eq!(device_reads, misses);
    assert!(
        (blocks - 1..=blocks).contains(&device_reads),
        "{device_reads} device reads for {blocks} blocks"
    );
}

/// The same tripwire for a sparse scan: a rare log file among 64 busy
/// ones, one entry every ≈ 40 blocks. A step climbs from its level-1 map
/// to a level-2 (now and then a level-3) map, descends into another
/// level-1 map and reads the block that names — and of those the cursor
/// has just read the first two on its previous step. It must not read
/// them again: a step costs the new level-1 map and the target block.
#[test]
fn sparse_scan_reads_each_map_once() {
    const BUSY_LOGS: u32 = 64;
    const APPENDS: u32 = 11_000;
    const RARE_EVERY: u32 = 360;
    let svc = LogService::create(
        VolumeSeqId(6),
        Arc::new(MemDevicePool::new(1024, 4096)),
        ServiceConfig {
            cache_blocks: 4096,
            ..ServiceConfig::default().with_shards(1)
        },
        clock(),
    )
    .unwrap();
    let busy: Vec<_> = (0..BUSY_LOGS)
        .map(|i| svc.create_log(&format!("/busy{i}")).unwrap())
        .collect();
    let rare = svc.create_log("/rare").unwrap();
    let mut rare_written = 0u32;
    for i in 0..APPENDS {
        if i % RARE_EVERY == RARE_EVERY / 2 {
            svc.append(rare, &payload(rare_written), AppendOpts::standard())
                .unwrap();
            rare_written += 1;
        } else {
            let log = busy[(i % BUSY_LOGS) as usize];
            svc.append(log, &[0x42; 100], AppendOpts::standard())
                .unwrap();
        }
    }
    svc.flush().unwrap();
    let blocks = svc.volumes().active().data_end();
    assert!(
        blocks >= 35 * u64::from(rare_written),
        "the scan must be sparse: {rare_written} entries in {blocks} blocks"
    );

    let reg = svc.metrics().clone();
    svc.cache().clear();
    let cache_before = svc.cache().stats();
    let locates_before = counter(&reg, "clio_core_locates_total");
    let locate_blocks_before = histogram(&reg, "clio_core_locate_blocks").sum;
    let memo_hits_before = counter(&reg, "clio_core_locate_memo_hits_total");

    let mut cur = svc.cursor("/rare").unwrap();
    let got = cur.collect_remaining().unwrap();
    assert_eq!(got.len(), rare_written as usize);
    assert!(got.iter().zip(0..).all(|(e, i)| e.data == payload(i)));

    let cache = svc.cache().stats();
    let lookups = cache.hits + cache.misses - cache_before.hits - cache_before.misses;
    let locates = counter(&reg, "clio_core_locates_total") - locates_before;
    let locate_blocks = histogram(&reg, "clio_core_locate_blocks").sum - locate_blocks_before;
    let memo_hits = counter(&reg, "clio_core_locate_memo_hits_total") - memo_hits_before;
    let entries = u64::from(rare_written);
    println!(
        "sparse scan: {entries} entries over {blocks} blocks, {lookups} cache lookups, \
         {locates} locates reading {locate_blocks} blocks, {memo_hits} maps from the memo"
    );
    // Measured: 72 lookups (2.3 per entry) and 70 locate blocks (2.1 per
    // locate); before the memo and the hand-over, 160 and 126 (5.2, 3.8).
    assert!(
        10 * lookups <= 25 * entries,
        "{lookups} cache lookups for {entries} entries"
    );
    assert!(
        10 * locate_blocks <= 23 * locates,
        "{locates} locates read {locate_blocks} blocks"
    );
    // What is no longer read is what the memo answered.
    assert!(
        memo_hits >= entries,
        "{memo_hits} memo answers over {entries} steps"
    );
}

fn blocks_attr(span: &Span) -> u64 {
    span.attrs
        .iter()
        .find_map(|(k, v)| match v {
            AttrValue::U64(n) if *k == "blocks" => Some(*n),
            _ => None,
        })
        .expect("read and append spans carry `blocks`")
}

/// A `read` span's `blocks` is what *that* read loaded from the device.
/// It used to be a before/after difference of the service-wide device
/// read counter, so a reader served entirely from memory was billed for
/// whatever a concurrent reader fetched meanwhile.
#[test]
fn read_span_blocks_are_per_op_under_concurrent_readers() {
    const COLD_READS: usize = 4000;
    let svc = LogService::create(
        VolumeSeqId(4),
        Arc::new(MemDevicePool::new(256, 4096)),
        ServiceConfig {
            // One cached block: the cold reader below misses every time.
            cache_blocks: 1,
            cache_shards: 1,
            trace_events: 1 << 16,
            ..ServiceConfig::small()
        },
        clock(),
    )
    .unwrap();
    let cold_log = svc.create_log("/cold").unwrap();
    let hot_log = svc.create_log("/hot").unwrap();
    // One entry per block, on the device.
    let cold: Vec<_> = (0..64u32)
        .map(|i| {
            let r = svc
                .append_path("/cold", &payload(i), AppendOpts::forced())
                .unwrap();
            r.addr
        })
        .collect();
    // One entry in the open block: reading it touches no device, no cache.
    let hot = svc
        .append_path("/hot", b"in the open block", AppendOpts::standard())
        .unwrap()
        .addr;

    let reg = svc.metrics().clone();
    let device_before = counter(&reg, "clio_device_reads_total");
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..COLD_READS {
                // Stride 7 over 64 blocks: never the block just cached.
                svc.read_entry(cold[(i * 7) % cold.len()]).unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        s.spawn(|| {
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                svc.read_entry(hot).unwrap();
            }
        });
    });
    let device_reads = counter(&reg, "clio_device_reads_total") - device_before;
    assert_eq!(device_reads, COLD_READS as u64, "every cold read misses");

    let spans: Vec<Span> = svc
        .obs()
        .trace()
        .snapshot()
        .into_iter()
        .filter(|s| s.name == "read")
        .collect();
    let of = |log: clio_types::LogFileId| {
        let id = Some(u64::from(log.0));
        spans.iter().filter(move |s| s.target == id)
    };
    assert!(of(hot_log).count() > 0, "the hot reader ran");
    // The ring may have lapped under a fast hot reader; whatever cold
    // spans survive must each own exactly their one load.
    assert!(of(cold_log).count() > 0, "cold spans survive in the ring");
    for s in of(cold_log) {
        assert_eq!(blocks_attr(s), 1, "a cold read loads its one block");
    }
    for s in of(hot_log) {
        assert_eq!(
            blocks_attr(s),
            0,
            "a read served from the open block loaded nothing"
        );
    }
}

/// An `append` span's `blocks` is what *that* append's own seal and commit
/// wrote. It used to be a before/after difference of the service-wide
/// device access counter (reads + appends + probes), so an append beside a
/// reader was billed for the reader's device traffic.
#[test]
fn append_span_blocks_are_per_op_beside_a_reader() {
    const APPENDS: u32 = 1500;
    let svc = LogService::create(
        VolumeSeqId(5),
        Arc::new(MemDevicePool::new(256, 4096)),
        ServiceConfig {
            // One cached block: the reader below goes to the device.
            cache_blocks: 1,
            cache_shards: 1,
            trace_events: 1 << 16,
            ..ServiceConfig::small()
        },
        clock(),
    )
    .unwrap();
    svc.create_log("/cold").unwrap();
    let forced_log = svc.create_log("/forced").unwrap();
    let buffered_log = svc.create_log("/buffered").unwrap();
    let cold: Vec<_> = (0..64u32)
        .map(|i| {
            let r = svc
                .append_path("/cold", &payload(i), AppendOpts::forced())
                .unwrap();
            r.addr
        })
        .collect();

    let reg = svc.metrics().clone();
    let device_reads_before = counter(&reg, "clio_device_reads_total");
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            // A lone forced appender seals and writes one block per
            // append; the buffered entry before it rides that block.
            for i in 0..APPENDS {
                svc.append(buffered_log, &payload(i), AppendOpts::standard())
                    .unwrap();
                svc.append(forced_log, &payload(i), AppendOpts::forced())
                    .unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        s.spawn(|| {
            let mut i = 0;
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                svc.read_entry(cold[(i * 7) % cold.len()]).unwrap();
                i += 1;
            }
        });
    });
    assert!(
        counter(&reg, "clio_device_reads_total") > device_reads_before,
        "the reader went to the device beside the appender"
    );

    let spans: Vec<Span> = svc
        .obs()
        .trace()
        .snapshot()
        .into_iter()
        .filter(|s| s.name == "append")
        .collect();
    let of = |log: clio_types::LogFileId| {
        let id = Some(u64::from(log.0));
        spans.iter().filter(move |s| s.target == id)
    };
    // The ring may have lapped under the reader; whatever append spans
    // survive must each own exactly their own writes.
    assert!(of(forced_log).count() > 0 && of(buffered_log).count() > 0);
    for s in of(forced_log) {
        assert_eq!(blocks_attr(s), 1, "a lone forced append writes its block");
    }
    for s in of(buffered_log) {
        assert_eq!(blocks_attr(s), 0, "a buffered append wrote nothing");
    }
}

/// A clock source for the current thread that counts how often it is
/// consulted — once per clock reading — and always answers `at`.
fn counting_clock(at: u64) -> (Arc<AtomicU64>, clio_obs::clock::VirtualClockGuard) {
    let reads = Arc::new(AtomicU64::new(0));
    let counter = reads.clone();
    let guard = clio_obs::clock::install_virtual_us(Arc::new(move || {
        counter.fetch_add(1, Ordering::Relaxed);
        at
    }));
    (reads, guard)
}

/// The clock budget, counted rather than timed: one reading per phase
/// boundary, shared by the spans that meet there and by the latency the
/// operation's histogram records. A buffered append that stays in the
/// open block and a `read_entry` the cache answers each read the clock
/// exactly twice; a lone forced append pays one more boundary (stage →
/// commit gate) plus its leader's seal, device write and publish. A
/// recovery reads it at its six phase boundaries, beside the two
/// readings of each device read and probe.
#[test]
fn clock_budget_is_one_reading_per_phase_boundary() {
    let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(256, 4096))));
    let svc = LogService::create(
        VolumeSeqId(7),
        pool.clone(),
        ServiceConfig::small(),
        clock(),
    )
    .unwrap();
    let log = svc.create_log("/budget").unwrap();
    let sealed = svc
        .append(log, &payload(0), AppendOpts::forced())
        .unwrap()
        .addr;
    assert!(svc.read_entry(sealed).is_ok(), "warm the cache");
    let reg = svc.metrics().clone();
    let (reads, _guard) = counting_clock(5);
    let spent = |op: &dyn Fn()| {
        let before = reads.load(Ordering::Relaxed);
        op();
        reads.load(Ordering::Relaxed) - before
    };

    let blocks_before = svc.volumes().active().data_end();
    let buffered = spent(&|| {
        svc.append(log, b"stays in the open block", AppendOpts::standard())
            .unwrap();
    });
    assert_eq!(svc.volumes().active().data_end(), blocks_before);
    assert_eq!(buffered, 2, "buffered append");

    let hits = counter(&reg, "clio_cache_hits_total");
    let read = spent(&|| {
        svc.read_entry(sealed).unwrap();
    });
    assert_eq!(counter(&reg, "clio_cache_hits_total"), hits + 1);
    assert_eq!(read, 2, "cache-hit read_entry");

    let forced = spent(&|| {
        svc.append(log, b"forced", AppendOpts::forced()).unwrap();
    });
    assert_eq!(
        forced, 9,
        "lone forced append: 3 boundaries + seal, device write, publish"
    );

    drop(svc);
    let before = reads.load(Ordering::Relaxed);
    // Untraced, so the cache's load spans read no clock.
    let untraced = ServiceConfig {
        trace_events: 0,
        ..ServiceConfig::small()
    };
    let (svc, report) =
        LogService::recover(pool.devices(), pool.clone(), untraced, clock()).unwrap();
    let recover = reads.load(Ordering::Relaxed) - before;
    let reg = svc.metrics();
    let device_ops = counter(reg, "clio_device_reads_total") + report.end_probes;
    assert_eq!(
        recover,
        6 + 2 * device_ops,
        "recover: 6 phase boundaries + 2 per device read or probe"
    );
}

/// Regression: spans measured with a host timer were stitched onto a
/// possibly virtual "now" (`start = now - host duration`), so under the
/// simulator's clock a `create_log` span started host microseconds before
/// its own virtual time and a `locate` could start before the `read` it
/// belongs to. Every span now opens and closes at clock readings, so
/// with the virtual clock frozen at V every span sits exactly at V.
#[test]
fn regression_virtual_clock_spans_carry_virtual_time() {
    const V: u64 = 7_000_000;
    let svc = LogService::create(
        VolumeSeqId(8),
        Arc::new(MemDevicePool::new(256, 4096)),
        ServiceConfig {
            trace_events: 1 << 12,
            ..ServiceConfig::small()
        },
        clock(),
    )
    .unwrap();
    let _frozen = clio_obs::clock::install_virtual_us(Arc::new(|| V));
    svc.create_log("/sparse").unwrap();
    svc.create_log("/busy").unwrap();
    for i in 0..400 {
        let path = if i % 50 == 0 { "/sparse" } else { "/busy" };
        svc.append_path(path, &payload(i), AppendOpts::standard())
            .unwrap();
    }
    svc.flush().unwrap();
    svc.cache().clear();
    let mut cur = svc.cursor("/sparse").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 8);

    let spans = svc.obs().trace().snapshot();
    let create = spans
        .iter()
        .find(|s| s.name == "create_log")
        .expect("create_log span");
    assert_eq!((create.start_us, create.dur_us), (V, 0), "{create:?}");
    let mut locates = 0;
    for s in spans.iter().filter(|s| s.name == "locate") {
        let read = spans
            .iter()
            .find(|r| r.name == "read" && r.trace == s.trace && r.parent.is_none())
            .expect("a locate belongs to a read");
        assert!(
            read.start_us <= s.start_us && s.start_us + s.dur_us <= read.start_us + read.dur_us,
            "locate {s:?} outside its read {read:?}"
        );
        locates += 1;
    }
    assert!(locates > 0, "the sparse scan located");
}

/// One line per series of `reg`, sorted by identity: the identity alone
/// for wall-clock series, `identity value` for everything a
/// single-threaded script decides (counters, gauges other than `_us`
/// timings, and a histogram's sample count).
fn surface(phase: &str, reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for s in reg.gather() {
        let id = s.identity();
        let line = match &s.value {
            MetricValue::Counter(v) => format!("{phase} {id} {v}"),
            MetricValue::Gauge(_) if s.name.ends_with("_us") => format!("{phase} {id}"),
            MetricValue::Gauge(v) => format!("{phase} {id} {v}"),
            MetricValue::Histogram(h) => format!("{phase} {id} count={}", h.count),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The `/metrics` surface is a contract: every series a scripted service
/// lifetime serves, and every value the script decides, is pinned in
/// `metrics_surface.txt`. A refactor of how things are counted must leave
/// this file alone. (To re-pin after a deliberate change, replace the file
/// with the "actual" text a failing run prints.)
#[test]
fn metrics_surface_is_pinned() {
    let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(256, 4096))));
    let clock = clock();
    // A cache small enough (two blocks a shard) that the script evicts.
    let cfg = ServiceConfig {
        cache_blocks: 16,
        ..ServiceConfig::small().with_shards(2)
    };
    let svc =
        LogService::create(VolumeSeqId(40), pool.clone(), cfg.clone(), clock.clone()).unwrap();
    let logs: Vec<_> = ["/a", "/b", "/c"]
        .iter()
        .map(|p| svc.create_log(p).unwrap())
        .collect();
    let mut receipts = Vec::new();
    for i in 0..90u32 {
        let opts = if i % 7 == 0 {
            AppendOpts::forced()
        } else {
            AppendOpts::standard()
        };
        receipts.push(
            svc.append(logs[(i % 3) as usize], &payload(i), opts)
                .unwrap(),
        );
    }
    svc.flush().unwrap();
    let mut cur = svc.cursor("/b").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 30);
    svc.cache().clear();
    assert_eq!(svc.read_entry(receipts[41].addr).unwrap().data, payload(41));
    let _ = svc.metrics_text();
    let mut actual = surface("run", svc.metrics());

    drop(svc);
    let (svc, _) = LogService::recover(pool.devices(), pool.clone(), cfg, clock).unwrap();
    let mut cur = svc.cursor("/c").unwrap();
    assert_eq!(cur.collect_remaining().unwrap().len(), 30);
    let _ = svc.metrics_text();
    actual.push_str(&surface("recovered", svc.metrics()));

    let pinned = include_str!("metrics_surface.txt");
    // Each line names its series, so the diff shows the moved lines only.
    assert!(
        actual == pinned,
        "the /metrics surface moved (-pinned +now):\n{}",
        clio_testkit::diff::line_diff(pinned, &actual)
            .lines()
            .filter(|l| !l.starts_with(' '))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
