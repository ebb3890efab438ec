//! Service-level observability: the unified registry, op tracing, and the
//! instrumented device plumbing.
//!
//! Every [`crate::LogService`] owns a [`ServiceObs`]: one
//! [`MetricsRegistry`] with which the device layer, the block cache, each
//! shard (its commit series and space accounting) and the service's own op
//! series each register once, as one source, plus a [`TraceRing`]
//! recording the span tree of each logical operation. Each event is
//! counted in one place, and a coarser series is the sum of finer stripes:
//! an append in its log's series, which the shard and service totals sum;
//! a commit in its shard's. The service
//! exposes the whole thing via [`crate::LogService::metrics_text`] /
//! [`crate::LogService::metrics_json`] / [`crate::LogService::trace_dump`],
//! and over the client/server channel via the `Stats` request.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use clio_device::{DeviceStats, InstrumentedDevice, SharedDevice};
use clio_entrymap::LocateStats;
use clio_obs::clock::Reading;
use clio_obs::{
    Collector, Counter, Gauge, HistSnapshot, Histogram, MetricSource, MetricsRegistry, SpanGuard,
    TraceRing,
};
use clio_types::{LogFileId, Result};
use clio_volume::DevicePool;

use crate::recovery::RecoveryReport;
use crate::stats::Space;

/// Service totals read as the sum of per-log or per-shard stripes.
const APPENDS_TOTAL: &str = "clio_core_appends_total";
const APPEND_LATENCY: &str = "clio_core_append_latency_ns";
const COMMITS_TOTAL: &str = "clio_core_group_commit_batches_total";
const COMMIT_BLOCKS: &str = "clio_core_group_commit_batch_blocks";
/// Per-shard appends: the sum of the shard's logs' append counters.
const SHARD_APPENDS: &str = "clio_shard_appends_total";

/// Per-log-file metric series (labeled `{log="<id>"}` at scrape):
/// groundwork for sharding, where per-log traffic shapes placement.
struct PerLog {
    appends: Arc<Counter>,
    reads: Arc<Counter>,
    append_ns: Arc<Histogram>,
    read_ns: Arc<Histogram>,
    /// The shard that first touched the log: its appends join that
    /// shard's total.
    shard: u32,
}

/// The series of the 256 log ids sharing a high byte.
type PerLogPage = Box<[OnceLock<PerLog>]>;

/// Per-log-file series, created lazily at first touch of each log id: a
/// two-level table over the 16-bit id (high byte picks a page, low byte a
/// series), so the per-op lookup is two loads — no lock, and no reference
/// count shared between a log's appender and its readers.
struct PerLogTable([OnceLock<PerLogPage>; 256]);

impl Default for PerLogTable {
    fn default() -> PerLogTable {
        PerLogTable(std::array::from_fn(|_| OnceLock::new()))
    }
}

/// Per-shard metric series (labeled `{shard="<i>"}`): one set per append
/// domain, held by the shard; a clone, which shares the handles, is the
/// shard's registered source.
#[derive(Clone, Default)]
pub(crate) struct PerShard {
    /// Commit batches this shard's gate wrote.
    pub commits: Arc<Counter>,
    /// Times a forced appender on this shard became the commit leader.
    pub leader_elections: Arc<Counter>,
    /// Blocks written per commit batch on this shard.
    pub commit_batch_blocks: Arc<Histogram>,
    /// Followers a commit released while they were still polling the gate.
    pub followers_polled: Arc<Counter>,
    /// Forced appends whose gate wait outlasted the poll budget and parked
    /// (counted once per append, when it first parks).
    pub followers_parked: Arc<Counter>,
    /// Commit leaders that found an arrival announced and waited for it.
    pub arrival_waits: Arc<Counter>,
    /// Arrival waits that ran out of budget and committed without it.
    pub arrival_timeouts: Arc<Counter>,
    /// Forced appends announced but not yet staged
    /// (`clio_core_shard<i>_arriving`) — the count commit leaders poll.
    pub arriving: Arc<Gauge>,
    /// Blocks sealed in memory awaiting a device write
    /// (`clio_core_shard<i>_sealed_queue_blocks`); set at seal and drain,
    /// never per append.
    pub sealed_queue_blocks: Arc<Gauge>,
    /// This shard's §3.5 space accounting (stripes of `clio_space_*`).
    pub space: Space,
}

/// The service's own series: one registered source, which a clone of the
/// handles the service counts with makes.
#[derive(Clone, Default)]
struct CoreSeries {
    per_log: Arc<PerLogTable>,
    /// The report of the recovery that built the service, if one did:
    /// what the `clio_recovery_*` gauges read.
    recovery: Arc<OnceLock<RecoveryReport>>,
    /// Wall-clock latency of `read_entry` calls, ns.
    read_latency: Arc<Histogram>,
    /// Wall-clock latency of entrymap locate searches, ns.
    locate_latency: Arc<Histogram>,
    /// Blocks read per locate search.
    locate_blocks: Arc<Histogram>,
    /// Tree-descent depth (highest level climbed) per locate search.
    locate_depth: Arc<Histogram>,
    append_errors: Arc<Counter>,
    reads: Arc<Counter>,
    read_errors: Arc<Counter>,
    locates: Arc<Counter>,
    /// Maps a locate search was answered from its cursor's memo instead of
    /// reading them again.
    locate_memo_hits: Arc<Counter>,
    creates: Arc<Counter>,
    view_publishes: Arc<Counter>,
    forced_writes_saved: Arc<Counter>,
}

/// The observability state of one service instance.
pub struct ServiceObs {
    registry: Arc<MetricsRegistry>,
    trace: Arc<TraceRing>,
    /// Counters shared by every device the service touches (the volume
    /// sequence wraps each pool device in an [`InstrumentedDevice`]).
    pub device_stats: Arc<DeviceStats>,
    core: CoreSeries,
}

impl ServiceObs {
    /// Builds the registry, registers the shared device counters and the
    /// service's own series, and sizes the trace ring to `trace_events`.
    #[must_use]
    pub(crate) fn new(trace_events: usize) -> Arc<ServiceObs> {
        let registry = Arc::new(MetricsRegistry::new());
        let device_stats = DeviceStats::new(&registry);
        let trace = Arc::new(TraceRing::new(trace_events));
        if trace.capacity() > 0 {
            device_stats.attach_trace(trace.clone());
        }
        let core = CoreSeries::default();
        registry.register(Arc::new(core.clone()));
        Arc::new(ServiceObs {
            registry,
            trace,
            device_stats,
            core,
        })
    }

    /// The unified registry.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The op trace ring (shared with the device layer and block cache).
    #[must_use]
    pub fn trace(&self) -> &Arc<TraceRing> {
        &self.trace
    }

    /// Opens a causal span in the service's trace ring. The span becomes a
    /// child of whatever span is already open on the calling thread, and
    /// records itself when closed or dropped.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.trace.span(name)
    }

    /// Opens a span at `at`, a reading the caller already took: the
    /// start of the latency the span's [`SpanGuard::close`] returns, or
    /// the boundary it shares with the phase before.
    #[must_use]
    pub fn span_at(&self, name: &'static str, at: Reading) -> SpanGuard<'_> {
        self.trace.span_at(name, at)
    }

    /// The per-log metric series for `id`, created on first touch by shard
    /// `shard`, which holds the log's entries (a reserved log has entries
    /// on every shard, but its series only count reads). Making them
    /// allocates and touches no lock, so a racing first touch waits in the
    /// `OnceLock` for no scheduling point the model checker cannot see.
    /// The appender's handles are allocated first and the readers' last,
    /// with the histograms' cold ends between, so the two sides of a log
    /// never write one cache line.
    fn per_log(&self, shard: u32, id: LogFileId) -> &PerLog {
        let page = self.core.per_log.0[usize::from(id.0 >> 8)]
            .get_or_init(|| (0..256).map(|_| OnceLock::new()).collect());
        page[usize::from(id.0 & 0xFF)].get_or_init(|| PerLog {
            appends: Arc::default(),
            append_ns: Arc::default(),
            read_ns: Arc::default(),
            reads: Arc::default(),
            shard,
        })
    }

    /// The metric series of append domain `idx`, made and registered
    /// once, when the shard is.
    pub(crate) fn per_shard(&self, idx: u32) -> PerShard {
        let series = PerShard::default();
        self.registry.register(Arc::new(ShardSeries {
            idx,
            series: series.clone(),
        }));
        series
    }

    /// Records an `append` to log `id` on shard `shard`: its latency and
    /// count in the log's series, which the shard and service totals sum.
    /// The trace side is the caller's root `append` span — see
    /// [`crate::LogService::append`] — so phases nest under one tree
    /// instead of landing as a second flat event.
    pub(crate) fn note_append(&self, shard: u32, id: LogFileId, dur: Duration, ok: bool) {
        if ok {
            let per_log = self.per_log(shard, id);
            per_log.appends.inc();
            per_log.append_ns.record_duration(dur);
        } else {
            self.core.append_errors.inc();
        }
    }

    /// Records a `read_entry` on shard `shard`: its latency and counters;
    /// the trace side is the caller's root `read` span.
    pub(crate) fn note_read(&self, shard: u32, target: Option<LogFileId>, dur: Duration, ok: bool) {
        if ok {
            self.core.reads.inc();
            self.core.read_latency.record_duration(dur);
            if let Some(id) = target {
                let per_log = self.per_log(shard, id);
                per_log.reads.inc();
                per_log.read_ns.record_duration(dur);
            }
        } else {
            self.core.read_errors.inc();
        }
    }

    /// Records one entrymap locate search from its [`LocateStats`]; the
    /// trace side is the caller's `locate` span.
    pub(crate) fn note_locate(&self, stats: &LocateStats, dur: Duration) {
        self.core.locates.inc();
        self.core.locate_memo_hits.add(stats.memo_hits);
        self.core.locate_latency.record_duration(dur);
        self.core.locate_blocks.record(stats.blocks_read);
        self.core.locate_depth.record(stats.max_level);
    }

    /// Counts a successful `create_log`; the trace side is the caller's
    /// `create_log` span.
    pub(crate) fn note_create(&self) {
        self.core.creates.inc();
    }

    /// Counts one republication of the read snapshot (an op republishes
    /// only when the snapshot would differ, so this tracks snapshot churn).
    pub(crate) fn note_view_publish(&self) {
        self.core.view_publishes.inc();
    }

    /// Counts the device writes a group commit saved: the forced appends
    /// it covered beyond the writes it issued (a lone forced append commits
    /// with one write, saving nothing). The batch itself is counted in its
    /// shard's series.
    pub(crate) fn note_writes_saved(&self, forced_covered: u64, device_writes: u64) {
        let saved = forced_covered.saturating_sub(device_writes.max(1));
        if saved > 0 {
            self.core.forced_writes_saved.add(saved);
        }
    }

    /// Registers the shared block cache's counters and, when tracing is
    /// enabled, hooks the cache's single-flight loads into the trace ring.
    pub(crate) fn attach_cache(
        &self,
        cache: &Arc<clio_cache::BlockCache<clio_format::ParsedBlock>>,
    ) {
        cache.register_into(&self.registry);
        if self.trace.capacity() > 0 {
            cache.attach_trace(self.trace.clone());
        }
    }

    /// Keeps the recovery's report, which the `clio_recovery_*` gauges
    /// read from then on.
    pub(crate) fn publish_recovery(&self, r: &RecoveryReport) {
        let _ = self.core.recovery.set(r.clone());
    }

    /// Wraps a device so its ops land in this service's shared counters.
    #[must_use]
    pub(crate) fn instrument_device(&self, dev: SharedDevice) -> SharedDevice {
        Arc::new(InstrumentedDevice::new(dev, self.device_stats.clone()))
    }
}

impl MetricSource for CoreSeries {
    fn collect(&self, out: &mut Collector) {
        for (name, c) in [
            ("clio_core_append_errors_total", &self.append_errors),
            ("clio_core_reads_total", &self.reads),
            ("clio_core_read_errors_total", &self.read_errors),
            ("clio_core_locates_total", &self.locates),
            ("clio_core_locate_memo_hits_total", &self.locate_memo_hits),
            ("clio_core_creates_total", &self.creates),
            ("clio_core_view_publishes_total", &self.view_publishes),
            (
                "clio_core_forced_writes_saved_total",
                &self.forced_writes_saved,
            ),
        ] {
            out.counter(name, &[], c.get());
        }
        for (name, h) in [
            ("clio_core_read_latency_ns", &self.read_latency),
            ("clio_core_locate_latency_ns", &self.locate_latency),
            ("clio_core_locate_blocks", &self.locate_blocks),
            ("clio_core_locate_depth", &self.locate_depth),
        ] {
            out.histogram(name, &[], &h.snapshot());
        }
        // The totals of stripes read 0 before the first stripe arrives.
        out.counter(APPENDS_TOTAL, &[], 0);
        out.histogram(APPEND_LATENCY, &[], &HistSnapshot::default());
        out.counter(COMMITS_TOTAL, &[], 0);
        out.histogram(COMMIT_BLOCKS, &[], &HistSnapshot::default());
        for (hi, page) in self.per_log.0.iter().enumerate() {
            let Some(page) = page.get() else { continue };
            for (lo, log) in page.iter().enumerate() {
                let Some(log) = log.get() else { continue };
                let (id, shard) = (((hi << 8) | lo).to_string(), log.shard.to_string());
                let labels: &[(&str, &str)] = &[("log", &id)];
                let appends = log.appends.get();
                out.counter("clio_log_appends_total", labels, appends);
                out.counter(APPENDS_TOTAL, &[], appends);
                out.counter(SHARD_APPENDS, &[("shard", &shard)], appends);
                out.counter("clio_log_reads_total", labels, log.reads.get());
                let append_ns = log.append_ns.snapshot();
                out.histogram("clio_log_append_latency_ns", labels, &append_ns);
                out.histogram(APPEND_LATENCY, &[], &append_ns);
                out.histogram("clio_log_read_latency_ns", labels, &log.read_ns.snapshot());
            }
        }
        let Some(r) = self.recovery.get() else { return };
        for (name, v) in [
            ("clio_recovery_volumes", u64::from(r.volumes)),
            ("clio_recovery_end_probes_total", r.end_probes),
            ("clio_recovery_rebuild_blocks_read", r.rebuild_blocks_read),
            ("clio_recovery_catalog_records", r.catalog_records),
            ("clio_recovery_end_locate_us", r.end_locate_us),
            ("clio_recovery_rebuild_us", r.rebuild_us),
            ("clio_recovery_catalog_us", r.catalog_us),
            ("clio_recovery_total_us", r.total_us),
        ] {
            out.gauge(name, &[], i64::try_from(v).unwrap_or(i64::MAX));
        }
    }
}

/// One shard's registered source: its series, and the index that labels
/// them.
struct ShardSeries {
    idx: u32,
    series: PerShard,
}

impl MetricSource for ShardSeries {
    fn collect(&self, out: &mut Collector) {
        let (idx, s) = (self.idx, &self.series);
        let label = idx.to_string();
        let shard: &[(&str, &str)] = &[("shard", &label)];
        for (name, c) in [
            ("clio_shard_commits_total", &s.commits),
            ("clio_shard_leader_elections_total", &s.leader_elections),
            ("clio_shard_followers_polled_total", &s.followers_polled),
            ("clio_shard_followers_parked_total", &s.followers_parked),
            ("clio_shard_arrival_waits_total", &s.arrival_waits),
            ("clio_shard_arrival_timeouts_total", &s.arrival_timeouts),
        ] {
            out.counter(name, shard, c.get());
        }
        out.counter(COMMITS_TOTAL, &[], s.commits.get());
        // The sum of this shard's logs' stripes: 0 before any append.
        out.counter(SHARD_APPENDS, shard, 0);
        let batch = s.commit_batch_blocks.snapshot();
        out.histogram("clio_shard_commit_batch_blocks", shard, &batch);
        out.histogram(COMMIT_BLOCKS, &[], &batch);
        let queue = s.sealed_queue_blocks.get();
        out.gauge(
            &format!("clio_core_shard{idx}_arriving"),
            &[],
            s.arriving.get(),
        );
        out.gauge(
            &format!("clio_core_shard{idx}_sealed_queue_blocks"),
            &[],
            queue,
        );
        s.space.collect(out);
    }
}

/// A [`DevicePool`] decorator wrapping every handed-out device in an
/// [`InstrumentedDevice`] that shares the service's [`DeviceStats`]. It
/// sits *outside* any recording pool the caller supplied, so crash/recover
/// tests still get the raw (non-volatile) devices back from their pool.
pub(crate) struct InstrumentingPool {
    inner: Arc<dyn DevicePool>,
    obs: Arc<ServiceObs>,
}

impl InstrumentingPool {
    /// Wraps `inner` so new devices report into `obs`.
    #[must_use]
    pub(crate) fn new(inner: Arc<dyn DevicePool>, obs: Arc<ServiceObs>) -> InstrumentingPool {
        InstrumentingPool { inner, obs }
    }
}

impl DevicePool for InstrumentingPool {
    fn next_device(&self) -> Result<SharedDevice> {
        Ok(self.obs.instrument_device(self.inner.next_device()?))
    }

    fn capacity_hint(&self) -> Option<u64> {
        self.inner.capacity_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_feed_counters_and_histograms() {
        let obs = ServiceObs::new(16);
        obs.note_append(0, LogFileId(8), Duration::from_micros(10), true);
        obs.note_append(0, LogFileId(8), Duration::from_micros(5), false);
        obs.note_read(0, Some(LogFileId(8)), Duration::from_micros(3), true);
        let stats = LocateStats {
            blocks_read: 4,
            map_entries_examined: 3,
            memo_hits: 2,
            fallbacks: 0,
            max_level: 2,
        };
        obs.note_locate(&stats, Duration::from_micros(7));
        let text = clio_obs::expo::render_prometheus(obs.registry());
        assert!(text.contains("clio_core_appends_total 1"));
        assert!(text.contains("clio_core_append_errors_total 1"));
        assert!(text.contains("clio_core_reads_total 1"));
        assert!(text.contains("clio_core_locates_total 1"));
        assert!(text.contains("clio_core_locate_blocks_count 1"));
        assert!(text.contains("clio_core_locate_memo_hits_total 2"));
        // Per-log labeled series appear alongside the service-wide ones.
        assert!(text.contains("clio_log_appends_total{log=\"8\"} 1"));
        assert!(text.contains("clio_log_reads_total{log=\"8\"} 1"));
        assert!(text.contains("clio_log_append_latency_ns_count{log=\"8\"} 1"));
        // The totals are the sums of the per-log stripes.
        assert!(text.contains("clio_shard_appends_total{shard=\"0\"} 1"));
        assert!(text.contains("clio_core_append_latency_ns_count 1"));
    }

    #[test]
    fn spans_nest_through_the_service_helper() {
        let obs = ServiceObs::new(16);
        {
            let mut root = obs.span("append");
            root.set_target(3);
            let _stage = obs.span("stage");
        }
        let trees = obs.trace().traces();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].roots[0].span.name, "append");
        assert_eq!(trees[0].roots[0].children[0].span.name, "stage");
    }

    #[test]
    fn instrumenting_pool_counts_device_ops() {
        use clio_types::BlockNo;
        use clio_volume::MemDevicePool;
        let obs = ServiceObs::new(0);
        let pool = InstrumentingPool::new(Arc::new(MemDevicePool::new(64, 8)), obs.clone());
        let dev = pool.next_device().unwrap();
        dev.append_block(BlockNo(0), &[0u8; 64]).unwrap();
        assert_eq!(obs.device_stats.appends.get(), 1);
    }
}
