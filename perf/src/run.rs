//! Running one workload for `--seconds`: repetitions, their reduction to
//! the named metrics, the printed report, and the result line.
//!
//! The untraced run produces the end-to-end metrics and nothing else. The
//! traced run alternates untraced, traced and ring-less repetitions, then
//! runs the replay probes, and produces the per-layer metrics; its
//! end-to-end numbers are never reported.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use crate::gen::{Sizing, Workload};
use crate::json::Json;
use crate::probes;
use crate::scenario::{run_rep, service_config, Phase, Rep, RepOptions};
use crate::span::{self, Span};
use crate::stats::{latency_percentiles, median, percentile, ratio, summarize, Summary};

/// Repetitions a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Spans written to `trace_<workload>.json`, at most (the file is for
/// reading, the numbers come from all spans).
const SPANS_WRITTEN: usize = 60_000;

/// The benchmark's end-to-end metrics, in report order, with their units.
/// All but `peak_rss_mb` are taken once per repetition.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("append_ops_s", "1/s"),
    ("append_p50_us", "us"),
    ("read_ops_s", "1/s"),
    ("read_p50_us", "us"),
    ("recover_ms", "ms"),
    ("write_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Median, range and count over repetitions.
    pub summary: Summary,
}

/// What a run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// Every byte read back was right and no acknowledged forced append
    /// was lost.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub lost_acked: u64,
    pub read_mismatch: u64,
    pub errors: Vec<String>,
    pub trace_hash: u64,
    pub reps: usize,
    /// Latency samples behind the append and read percentiles, all reps.
    pub samples: (usize, usize),
}

/// Totals over the repetitions of a run.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    lost_acked: u64,
    read_mismatch: u64,
    errors: crate::scenario::Errors,
    append_samples: usize,
    read_samples: usize,
    trace_hash: u64,
    reps: usize,
}

impl Totals {
    fn add(&mut self, rep: &Rep) {
        self.trace_hash = rep.trace.hash;
        self.reps += 1;
        let phases = [Some(&rep.append), Some(&rep.read), rep.post_scan.as_ref()];
        for p in phases.into_iter().flatten() {
            self.attempted += p.attempted;
            self.failed += p.failed;
            self.read_mismatch += p.mismatches;
        }
        let recoveries = rep.recover_ms.len() as u64 + rep.recover_failed;
        self.attempted += recoveries;
        self.failed += rep.recover_failed;
        self.lost_acked += rep.lost_acked;
        self.errors.absorb(rep.errors.clone());
        self.append_samples += rep.append.lat_ns.len();
        self.read_samples += rep.read.lat_ns.len();
    }

    fn finish(self, workload: Workload, seed: u64, traced: bool, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            workload,
            seed,
            traced,
            metrics,
            correct: self.lost_acked == 0 && self.read_mismatch == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            lost_acked: self.lost_acked,
            read_mismatch: self.read_mismatch,
            errors: self.errors.0,
            trace_hash: self.trace_hash,
            reps: self.reps,
            samples: (self.append_samples, self.read_samples),
        }
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-repetition end-to-end values of `rep` (latency vectors are
/// sorted in place).
fn end_to_end_values(rep: &mut Rep, block_size: usize) -> Vec<(&'static str, f64)> {
    let (a50, _, _) = latency_percentiles(&mut rep.append.lat_ns);
    let (r50, _, _) = latency_percentiles(&mut rep.read.lat_ns);
    let device_bytes = rep.device[1].blocks_written * block_size as u64;
    vec![
        ("setup_s", rep.setup_s),
        (
            "append_ops_s",
            ratio(rep.append.done as f64, rep.append.wall_s),
        ),
        ("append_p50_us", a50 / 1e3),
        ("read_ops_s", ratio(rep.read.done as f64, rep.read.wall_s)),
        ("read_p50_us", r50 / 1e3),
        ("recover_ms", median(&rep.recover_ms)),
        (
            "write_amp",
            ratio(device_bytes as f64, rep.append.bytes as f64),
        ),
    ]
}

/// Collects per-repetition values by name.
#[derive(Default)]
struct Series {
    values: HashMap<&'static str, Vec<f64>>,
}

impl Series {
    fn push(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }

    fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (n, v) in values {
            self.push(n, v);
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| median(v))
    }
}

/// The untraced run: repetitions until `seconds` have passed.
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    started: Instant,
) -> Result<Outcome, String> {
    let sizing = Sizing::bench(workload);
    let cfg = service_config(512);
    let opt = RepOptions {
        traced: false,
        trace_events: cfg.trace_events,
        append_only: false,
    };
    let mut series = Series::default();
    let mut totals = Totals::default();
    // Another repetition starts only if at least half of it fits, so a run
    // lasts `seconds` give or take half a repetition.
    while totals.reps < MIN_REPS || {
        let elapsed = started.elapsed().as_secs_f64();
        elapsed + 0.5 * elapsed / (totals.reps as f64) < seconds
    } {
        let mut rep = run_rep(workload, seed, sizing, opt).map_err(|e| e.to_string())?;
        totals.add(&rep);
        series.extend(end_to_end_values(&mut rep, cfg.block_size));
    }
    series.push("peak_rss_mb", peak_rss_mb());
    let metrics = END_TO_END
        .iter()
        .map(|(name, unit)| Metric {
            name,
            unit,
            summary: summarize(&series.values[name]),
        })
        .collect();
    Ok(totals.finish(workload, seed, false, metrics))
}

/// The per-layer metrics, in report order, with their units. The traced
/// run emits every one of them on every workload; a layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("device.write_ops", "count"),
    ("device.blocks_written", "count"),
    ("device.blocks_per_write", "ratio"),
    ("device.write_busy_us", "us"),
    ("device.read_ops", "count"),
    ("device.read_busy_us", "us"),
    ("device.probe_ops", "count"),
    ("device.sync_ops", "count"),
    ("device.failed_ops", "count"),
    ("volume.rollovers", "count"),
    ("volume.next_device_us", "us"),
    ("volume.open_us", "us"),
    ("volume.read_block_ns", "ns"),
    ("types.crc32_ns_per_kib", "ns"),
    ("format.pack_ns_per_entry", "ns"),
    ("format.finish_ns_per_block", "ns"),
    ("format.parse_ns_per_block", "ns"),
    ("format.iter_ns_per_entry", "ns"),
    ("format.header_bytes_per_entry", "bytes"),
    ("format.padding_pct", "%"),
    ("entrymap.note_ns_per_block", "ns"),
    ("entrymap.overhead_bytes_per_entry", "bytes"),
    ("entrymap.locate_ns", "ns"),
    ("entrymap.locate_blocks_read", "count"),
    ("entrymap.rebuild_ns", "ns"),
    ("entrymap.rebuild_blocks_read", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.duplicate_loads", "count"),
    ("cache.get_hit_ns", "ns"),
    ("cache.put_evict_ns", "ns"),
    ("core.append.self_ns", "ns"),
    ("core.append.buffered_p50_ns", "ns"),
    ("core.append.forced_p50_ns", "ns"),
    ("core.append.p99_us", "us"),
    ("core.append.p999_us", "us"),
    ("core.append.allocs_per_op", "count"),
    ("core.append.alloc_bytes_per_op", "bytes"),
    ("core.append.first_decile_p50_ns", "ns"),
    ("core.append.last_decile_p50_ns", "ns"),
    ("core.view_publishes_per_append", "ratio"),
    ("core.appends_per_device_write", "ratio"),
    ("core.commit.leader_elections", "count"),
    ("core.flush_us", "us"),
    ("core.create_log_us", "us"),
    ("core.read.self_ns", "ns"),
    ("core.read.allocs_per_op", "count"),
    ("core.read.p99_us", "us"),
    ("core.read.p999_us", "us"),
    ("core.cursor.next_ns", "ns"),
    ("core.cursor.locates_per_entry", "ratio"),
    ("core.cursor.locate_blocks_per_entry", "ratio"),
    ("core.recover.end_locate_us", "us"),
    ("core.recover.rebuild_us", "us"),
    ("core.recover.catalog_us", "us"),
    ("core.recover.catalog_records", "count"),
    ("core.recover.volumes", "count"),
    ("core.recover.buffered_lost", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.scrape_us", "us"),
    ("obs.harness_overhead_pct", "%"),
    ("check.lost_acked", "count"),
    ("check.read_mismatch", "count"),
    ("check.ops_failed", "count"),
    ("check.ops_attempted", "count"),
    ("check.span_nesting_violations", "count"),
    ("check.spans", "count"),
    ("traced.append_ops_s", "1/s"),
    ("traced.read_ops_s", "1/s"),
    ("traced.recover_ms", "ms"),
];

/// The per-layer values one traced repetition and its spans give.
fn layer_values(rep: &mut Rep, spans: &[Span]) -> Vec<(&'static str, f64)> {
    let [created, appended, dev] = rep.device;
    let append_writes = appended.write_ops - created.write_ops;
    let reports = &rep.reports;
    let report_median = |f: fn(&clio_core::recovery::RecoveryReport) -> u64| {
        median(&reports.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let first_report = reports.first().cloned().unwrap_or_default();

    // Latencies by class, in call order, before anything sorts them.
    let ops: Vec<_> = rep.trace.clients.iter().flatten().collect();
    let (mut buffered, mut forced): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    for (op, lat) in ops.iter().zip(&rep.append.lat_ns) {
        if op.forced {
            forced.push(*lat);
        } else {
            buffered.push(*lat);
        }
    }
    // How a single client's cost moves over the phase: the first and last
    // tenth of its appends.
    let single = &rep.append.lat_ns[..rep.trace.clients[0].len().min(rep.append.lat_ns.len())];
    let tenth = (single.len() / 10).max(1).min(single.len());
    let decile_p50 = |slice: &[u32]| {
        let mut v = slice.to_vec();
        latency_percentiles(&mut v).0
    };
    let first_decile = decile_p50(&single[..tenth]);
    let last_decile = decile_p50(&single[single.len() - tenth..]);

    let selfs = span::self_times(spans);
    let (append_self, _) = span::mean_self_ns(spans, &selfs, "core.append");
    let (read_self, _) = span::mean_self_ns(spans, &selfs, "core.read");
    let violations = nesting_violations(spans);

    let (_, a99, a999) = latency_percentiles(&mut rep.append.lat_ns);
    let (_, r99, r999) = latency_percentiles(&mut rep.read.lat_ns);
    let scans: &Phase = rep.post_scan.as_ref().unwrap_or(&rep.read);
    let lookups = rep.cache.hits + rep.cache.misses;
    let mut failed = rep.append.failed + rep.read.failed + rep.recover_failed;
    let mut attempted = rep.append.attempted
        + rep.read.attempted
        + rep.recover_ms.len() as u64
        + rep.recover_failed;
    let mut mismatches = rep.read.mismatches;
    if let Some(p) = &rep.post_scan {
        failed += p.failed;
        attempted += p.attempted;
        mismatches += p.mismatches;
    }
    vec![
        ("device.write_ops", dev.write_ops as f64),
        ("device.blocks_written", dev.blocks_written as f64),
        (
            "device.blocks_per_write",
            ratio(dev.blocks_written as f64, dev.write_ops as f64),
        ),
        ("device.write_busy_us", dev.write_busy_ns as f64 / 1e3),
        ("device.read_ops", dev.read_ops as f64),
        ("device.read_busy_us", dev.read_busy_ns as f64 / 1e3),
        ("device.probe_ops", dev.probe_ops as f64),
        ("device.sync_ops", dev.sync_ops as f64),
        ("device.failed_ops", dev.failed_ops as f64),
        (
            "volume.rollovers",
            // Every volume handed out after `create` is a successor.
            (appended.next_device_calls - created.next_device_calls) as f64,
        ),
        (
            "volume.next_device_us",
            ratio(
                appended.next_device_ns as f64 / 1e3,
                appended.next_device_calls as f64,
            ),
        ),
        (
            "format.header_bytes_per_entry",
            rep.space.avg_header_overhead,
        ),
        (
            "format.padding_pct",
            100.0
                * ratio(
                    rep.space.padding_bytes as f64,
                    rep.space.device_bytes as f64,
                ),
        ),
        (
            "entrymap.overhead_bytes_per_entry",
            rep.space.avg_entrymap_overhead,
        ),
        (
            "cache.hit_ratio",
            ratio(rep.cache.hits as f64, lookups as f64),
        ),
        ("cache.evictions", rep.cache.evictions as f64),
        ("cache.duplicate_loads", rep.cache.duplicate_loads as f64),
        ("core.append.self_ns", append_self),
        ("core.append.buffered_p50_ns", {
            buffered.sort_unstable();
            percentile(&buffered, 0.5)
        }),
        ("core.append.forced_p50_ns", {
            forced.sort_unstable();
            percentile(&forced, 0.5)
        }),
        ("core.append.p99_us", a99 / 1e3),
        ("core.append.p999_us", a999 / 1e3),
        (
            "core.append.allocs_per_op",
            ratio(rep.append.allocs as f64, rep.append.attempted as f64),
        ),
        (
            "core.append.alloc_bytes_per_op",
            ratio(rep.append.alloc_bytes as f64, rep.append.attempted as f64),
        ),
        ("core.append.first_decile_p50_ns", first_decile),
        ("core.append.last_decile_p50_ns", last_decile),
        (
            "core.view_publishes_per_append",
            ratio(rep.counts[0].view_publishes as f64, rep.append.done as f64),
        ),
        (
            "core.appends_per_device_write",
            ratio(rep.append.done as f64, append_writes as f64),
        ),
        (
            "core.commit.leader_elections",
            rep.counts[0].leader_elections as f64,
        ),
        ("core.flush_us", rep.flush_us),
        ("core.create_log_us", rep.create_log_us),
        ("core.read.self_ns", read_self),
        (
            "core.read.allocs_per_op",
            ratio(rep.read.allocs as f64, rep.read.attempted as f64),
        ),
        ("core.read.p99_us", r99 / 1e3),
        ("core.read.p999_us", r999 / 1e3),
        (
            "core.cursor.next_ns",
            ratio(scans.cursor_ns as f64, scans.cursor_calls as f64),
        ),
        (
            "core.cursor.locates_per_entry",
            ratio(rep.counts[1].locates as f64, scans.cursor_entries as f64),
        ),
        (
            "core.cursor.locate_blocks_per_entry",
            ratio(
                rep.counts[1].locate_blocks as f64,
                scans.cursor_entries as f64,
            ),
        ),
        (
            "core.recover.end_locate_us",
            report_median(|r| r.end_locate_us),
        ),
        ("core.recover.rebuild_us", report_median(|r| r.rebuild_us)),
        ("core.recover.catalog_us", report_median(|r| r.catalog_us)),
        (
            "core.recover.catalog_records",
            first_report.catalog_records as f64,
        ),
        ("core.recover.volumes", f64::from(first_report.volumes)),
        ("core.recover.buffered_lost", rep.buffered_lost as f64),
        ("obs.scrape_us", rep.scrape_us),
        ("check.lost_acked", rep.lost_acked as f64),
        ("check.read_mismatch", mismatches as f64),
        ("check.ops_failed", failed as f64),
        ("check.ops_attempted", attempted as f64),
        ("check.span_nesting_violations", violations as f64),
        ("check.spans", spans.len() as f64),
        (
            "traced.append_ops_s",
            ratio(rep.append.done as f64, rep.append.wall_s),
        ),
        (
            "traced.read_ops_s",
            ratio(rep.read.done as f64, rep.read.wall_s),
        ),
        ("traced.recover_ms", median(&rep.recover_ms)),
    ]
}

/// Spans whose children's durations add up to more than their own.
fn nesting_violations(spans: &[Span]) -> usize {
    let mut child_sum: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_sum.entry(s.parent).or_default() += s.duration_ns();
    }
    spans
        .iter()
        .filter(|s| {
            child_sum
                .get(&s.id)
                .is_some_and(|sum| *sum > s.duration_ns())
        })
        .count()
}

/// The traced run: per-layer metrics, and the span file under `out_dir`.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    started: Instant,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let sizing = Sizing::bench(workload);
    let cfg = service_config(512);
    let options = |traced, trace_events, append_only| RepOptions {
        traced,
        trace_events,
        append_only,
    };
    let mut series = Series::default();
    let mut totals = Totals::default();
    let mut last: Option<(Rep, Vec<Span>)> = None;
    let mut round_s = 0.0;
    // A round is three repetitions: untraced, traced, and untraced without
    // the product's trace ring.
    while totals.reps == 0 || started.elapsed().as_secs_f64() + round_s < seconds {
        let t_round = Instant::now();
        let plain = run_rep(
            workload,
            seed,
            sizing,
            options(false, cfg.trace_events, false),
        )
        .map_err(|e| e.to_string())?;
        series.push(
            "plain.append_ops_s",
            ratio(plain.append.done as f64, plain.append.wall_s),
        );
        series.push("plain.append_wall_s", plain.append.wall_s);
        drop(plain);

        let ringless =
            run_rep(workload, seed, sizing, options(false, 0, true)).map_err(|e| e.to_string())?;
        series.push("ringless.append_wall_s", ringless.append.wall_s);
        drop(ringless);

        drop(span::take_all());
        let mut rep = run_rep(
            workload,
            seed,
            sizing,
            options(true, cfg.trace_events, false),
        )
        .map_err(|e| e.to_string())?;
        let spans = span::take_all();
        totals.add(&rep);
        series.extend(layer_values(&mut rep, &spans));
        last = Some((rep, spans));
        round_s = t_round.elapsed().as_secs_f64();
    }
    let (rep, spans) = last.expect("at least one round ran");

    // Replay probes on the last traced repetition's crash image and trace.
    series.extend(
        probes::run(
            &rep.image,
            &rep.trace,
            &rep.ids,
            cfg.block_size,
            usize::from(cfg.fanout),
        )
        .map_err(|e| format!("replay probes: {e}"))?,
    );
    let plain = series.median("plain.append_ops_s");
    series.push(
        "obs.harness_overhead_pct",
        100.0 * ratio(plain - series.median("traced.append_ops_s"), plain),
    );
    let ringless = series.median("ringless.append_wall_s");
    series.push(
        "obs.trace_overhead_pct",
        100.0 * ratio(series.median("plain.append_wall_s") - ringless, ringless),
    );

    write_spans(out_dir, workload, seed, &spans)?;

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let values = series
            .values
            .get(name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        metrics.push(Metric {
            name,
            unit,
            summary: summarize(values),
        });
    }
    let violations = series.values["check.span_nesting_violations"]
        .iter()
        .sum::<f64>();
    let mut out = totals.finish(workload, seed, true, metrics);
    out.correct &= violations == 0.0;
    Ok(out)
}

/// Writes `trace_<workload>.json`: parent-linked spans, oldest first.
fn write_spans(dir: &Path, workload: Workload, seed: u64, spans: &[Span]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.json", workload.name()));
    let written = &spans[..spans.len().min(SPANS_WRITTEN)];
    let doc = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(seed as f64)),
        ("spans_recorded", Json::Num(spans.len() as f64)),
        ("spans_written", Json::Num(written.len() as f64)),
        (
            "spans",
            Json::Arr(
                written
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            ("parent", Json::Num(s.parent as f64)),
                            ("op", Json::Num(s.op as f64)),
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("thread", Json::Num(s.thread as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&path, doc.encode()).map_err(|e| format!("{}: {e}", path.display()))
}

impl Outcome {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.summary.median)),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .encode()
    }

    /// Everything about the run, for result files and `compare`.
    pub fn detail(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("lost_acked", Json::Num(self.lost_acked as f64)),
            ("read_mismatch", Json::Num(self.read_mismatch as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
            ("trace_hash", Json::str(format!("{:016x}", self.trace_hash))),
            ("repetitions", Json::Num(self.reps as f64)),
            (
                "clients",
                Json::Num(
                    if self.workload == Workload::TxnForced || self.workload == Workload::TailMixed
                    {
                        2.0
                    } else {
                        1.0
                    },
                ),
            ),
            ("sizing", {
                let s = Sizing::bench(self.workload);
                Json::obj([
                    ("appends_per_client", Json::Num(s.appends_per_client as f64)),
                    ("random_reads", Json::Num(s.random_reads as f64)),
                    ("volume_blocks", Json::Num(s.volume_blocks as f64)),
                ])
            }),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.summary.median)),
                            ("unit", Json::str(m.unit)),
                            ("min", Json::Num(m.summary.min)),
                            ("max", Json::Num(m.summary.max)),
                            ("n", Json::Num(m.summary.n as f64)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The report a person reads: every metric by name, with its unit.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} run, {} repetitions, trace_hash {:016x}) ==",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.reps,
            self.trace_hash
        );
        let s = Sizing::bench(self.workload);
        println!(
            "   sizing: {} appends/client, {} random reads, {}-block volumes",
            s.appends_per_client, s.random_reads, s.volume_blocks
        );
        for m in &self.metrics {
            let s = m.summary;
            let samples = match m.name {
                "append_p50_us" => format!("  samples={}", self.samples.0),
                "read_p50_us" => format!("  samples={}", self.samples.1),
                _ => String::new(),
            };
            println!(
                "   {:<38} {:>14.4} {:<6} (min {:.4}, max {:.4}, n={}){samples}",
                m.name, s.median, m.unit, s.min, s.max, s.n
            );
        }
        println!(
            "   ops_attempted={} ops_failed={} lost_acked={} read_mismatch={} correct={}",
            self.attempted, self.failed, self.lost_acked, self.read_mismatch, self.correct
        );
        for e in &self.errors {
            println!("   error: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn outcome_of(metrics: Vec<Metric>) -> Outcome {
        let totals = Totals {
            trace_hash: 0xABCD,
            reps: 3,
            ..Totals::default()
        };
        totals.finish(Workload::AuditBuffered, 1, false, metrics)
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let o = outcome_of(vec![Metric {
            name: "setup_s",
            unit: "s",
            summary: summarize(&[0.5, 0.25, 1.0]),
        }]);
        let line = o.result_line();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // `attempted` is at least 1 even for an empty run.
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(1.0));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        let d = o.detail();
        assert_eq!(
            d.get("trace_hash").and_then(Json::as_str),
            Some("000000000000abcd")
        );
        assert_eq!(
            d.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("max"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn metric_tables_have_unique_contract_shaped_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn a_traced_repetition_nests_its_spans_and_repeats_its_counts() {
        let _serial = span::test_lock();
        let sizing = Sizing {
            appends_per_client: 4_000,
            random_reads: 500,
            volume_blocks: 512,
        };
        let traced = RepOptions {
            traced: true,
            trace_events: 512,
            append_only: false,
        };
        let run = || {
            drop(span::take_all());
            let mut rep = run_rep(Workload::MultilogSparse, 4, sizing, traced).expect("rep");
            let spans = span::take_all();
            let values: HashMap<_, _> = layer_values(&mut rep, &spans).into_iter().collect();
            (values, spans)
        };
        let (a, spans) = run();
        let (b, _) = run();
        assert!(!span::enabled(), "a repetition leaves recording off");
        // Every op span has its device calls underneath it, inside it.
        assert_eq!(nesting_violations(&spans), 0);
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        assert!(spans
            .iter()
            .any(|s| s.name == "device.write" && s.parent != 0));
        for s in spans.iter().filter(|s| s.parent != 0) {
            let p = by_id[&s.parent];
            assert_eq!(p.op, s.op);
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{s:?} in {p:?}"
            );
        }
        // One client: the counts are a function of the inputs alone.
        for name in [
            "device.write_ops",
            "device.blocks_written",
            "device.read_ops",
            "core.append.allocs_per_op",
            "core.append.alloc_bytes_per_op",
            "core.read.allocs_per_op",
            "core.recover.catalog_records",
            "core.recover.buffered_lost",
            "core.cursor.locate_blocks_per_entry",
            "check.spans",
        ] {
            assert_eq!(a[name], b[name], "{name}");
            assert!(a[name] > 0.0, "{name}");
        }
        assert_eq!(a["check.ops_failed"], 0.0);
        // Everything `layer_values` emits is a per-layer metric, and all
        // that is left for the probes and the overhead ratios.
        assert!(a.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)));
        assert_eq!(PER_LAYER.len() - a.len(), 14 + 2);
    }

    #[test]
    fn children_longer_than_their_parent_are_flagged() {
        let span = |id, parent, start, end| Span {
            id,
            parent,
            op: 1,
            name: "t",
            start_ns: start,
            end_ns: end,
            thread: 1,
        };
        let ok = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 50, 90)];
        assert_eq!(nesting_violations(&ok), 0);
        let bad = [span(1, 0, 0, 100), span(2, 1, 0, 80), span(3, 1, 10, 90)];
        assert_eq!(nesting_violations(&bad), 1);
    }
}
