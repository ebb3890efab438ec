//! Service-level observability: the unified registry, op tracing, and the
//! instrumented device plumbing.
//!
//! Every [`crate::LogService`] owns a [`ServiceObs`]: one
//! [`MetricsRegistry`] into which the device layer, the block cache, the
//! shards' space accounting and the service's own op histograms all
//! register, plus a [`TraceRing`] recording the span tree of each logical
//! operation. Each event is counted in one place, and a coarser series is
//! the sum of finer stripes: an append in its log's series, which the
//! shard and service totals sum; a commit in its shard's. The service
//! exposes the whole thing via [`crate::LogService::metrics_text`] /
//! [`crate::LogService::metrics_json`] / [`crate::LogService::trace_dump`],
//! and over the client/server channel via the `Stats` request.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use clio_device::{DeviceStats, InstrumentedDevice, SharedDevice};
use clio_entrymap::LocateStats;
use clio_obs::clock::Reading;
use clio_obs::{Counter, Gauge, Histogram, MetricsRegistry, Series, SpanGuard, TraceRing};
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

/// Per-log-file metric series (labeled `{log="<id>"}` in the registry):
/// groundwork for sharding, where per-log traffic shapes placement.
struct PerLog {
    appends: Arc<Counter>,
    reads: Arc<Counter>,
    append_ns: Arc<Histogram>,
    read_ns: Arc<Histogram>,
}

/// The series of the 256 log ids sharing a high byte.
type PerLogPage = Box<[OnceLock<PerLog>]>;

/// Per-shard metric series (labeled `{shard="<i>"}`): one set per append
/// domain, held by the shard.
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

/// The observability state of one service instance.
pub struct ServiceObs {
    registry: Arc<MetricsRegistry>,
    trace: Arc<TraceRing>,
    /// Per-log-file series, created lazily at first touch of each log id:
    /// a two-level table over the 16-bit id (high byte picks a page, low
    /// byte a series), so the per-op lookup is two loads — no lock, and no
    /// reference count shared between a log's appender and its readers.
    per_log: Box<[OnceLock<PerLogPage>]>,
    /// Counters shared by every device the service touches (the volume
    /// sequence wraps each pool device in an [`InstrumentedDevice`]).
    pub device_stats: Arc<DeviceStats>,
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

impl ServiceObs {
    /// Builds the registry, registers the shared device counters, and sizes
    /// the trace ring to `trace_events`.
    #[must_use]
    pub(crate) fn new(trace_events: usize) -> Arc<ServiceObs> {
        let registry = Arc::new(MetricsRegistry::new());
        let device_stats = DeviceStats::new(&registry);
        let trace = Arc::new(TraceRing::new(trace_events));
        if trace.capacity() > 0 {
            device_stats.attach_trace(trace.clone());
        }
        // Totals of stripes, registered now so they read 0 before the
        // first stripe arrives.
        let _ = registry.counter(APPENDS_TOTAL);
        let _ = registry.histogram(APPEND_LATENCY);
        let _ = registry.counter(COMMITS_TOTAL);
        let _ = registry.histogram(COMMIT_BLOCKS);
        Arc::new(ServiceObs {
            trace,
            per_log: (0..256).map(|_| OnceLock::new()).collect(),
            device_stats,
            read_latency: registry.histogram("clio_core_read_latency_ns"),
            locate_latency: registry.histogram("clio_core_locate_latency_ns"),
            locate_blocks: registry.histogram("clio_core_locate_blocks"),
            locate_depth: registry.histogram("clio_core_locate_depth"),
            append_errors: registry.counter("clio_core_append_errors_total"),
            reads: registry.counter("clio_core_reads_total"),
            read_errors: registry.counter("clio_core_read_errors_total"),
            locates: registry.counter("clio_core_locates_total"),
            locate_memo_hits: registry.counter("clio_core_locate_memo_hits_total"),
            creates: registry.counter("clio_core_creates_total"),
            view_publishes: registry.counter("clio_core_view_publishes_total"),
            forced_writes_saved: registry.counter("clio_core_forced_writes_saved_total"),
            registry,
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
    /// on every shard, but its series only count reads). Fetched before
    /// the slot's `get_or_init`, not inside it: the registry's lock is a
    /// model-checker scheduling point, and a thread blocked in a
    /// `OnceLock` waits where the checker cannot see it. Racing first
    /// touches fetch the same series, and the registry adopts it into its
    /// totals once, in the hold that creates it.
    fn per_log(&self, shard: u32, id: LogFileId) -> &PerLog {
        let page = self.per_log[usize::from(id.0 >> 8)]
            .get_or_init(|| (0..256).map(|_| OnceLock::new()).collect());
        let slot = &page[usize::from(id.0 & 0xFF)];
        if let Some(series) = slot.get() {
            return series;
        }
        let (label, shard) = (id.0.to_string(), shard.to_string());
        let labels: &[(&str, &str)] = &[("log", &label)];
        let appends: &[Series] = &[(APPENDS_TOTAL, &[]), (SHARD_APPENDS, &[("shard", &shard)])];
        let latency: &[Series] = &[(APPEND_LATENCY, &[])];
        let reg = &self.registry;
        let series = PerLog {
            appends: reg.counter_with("clio_log_appends_total", labels, appends),
            reads: reg.counter_with("clio_log_reads_total", labels, &[]),
            append_ns: reg.histogram_with("clio_log_append_latency_ns", labels, latency),
            read_ns: reg.histogram_with("clio_log_read_latency_ns", labels, &[]),
        };
        slot.get_or_init(|| series)
    }

    /// The metric series of append domain `idx`, made once, when the
    /// shard is: its space counters join the `clio_space_*` totals here.
    pub(crate) fn per_shard(&self, idx: u32) -> PerShard {
        let label = idx.to_string();
        let labels: &[(&str, &str)] = &[("shard", &label)];
        let reg = &self.registry;
        let counter = |name: &str| reg.counter_with(name, labels, &[]);
        // The sum of this shard's logs' stripes; registered now so a shard
        // with no appends reads 0.
        let _ = counter(SHARD_APPENDS);
        PerShard {
            commits: reg.counter_with("clio_shard_commits_total", labels, &[(COMMITS_TOTAL, &[])]),
            leader_elections: counter("clio_shard_leader_elections_total"),
            commit_batch_blocks: reg.histogram_with(
                "clio_shard_commit_batch_blocks",
                labels,
                &[(COMMIT_BLOCKS, &[])],
            ),
            followers_polled: counter("clio_shard_followers_polled_total"),
            followers_parked: counter("clio_shard_followers_parked_total"),
            arrival_waits: counter("clio_shard_arrival_waits_total"),
            arrival_timeouts: counter("clio_shard_arrival_timeouts_total"),
            arriving: reg.gauge(&format!("clio_core_shard{idx}_arriving")),
            sealed_queue_blocks: reg.gauge(&format!("clio_core_shard{idx}_sealed_queue_blocks")),
            space: Space::adopted_by(reg),
        }
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
            self.append_errors.inc();
        }
    }

    /// Records a `read_entry` on shard `shard`: its latency and counters;
    /// the trace side is the caller's root `read` span.
    pub(crate) fn note_read(&self, shard: u32, target: Option<LogFileId>, dur: Duration, ok: bool) {
        if ok {
            self.reads.inc();
            self.read_latency.record_duration(dur);
            if let Some(id) = target {
                let per_log = self.per_log(shard, id);
                per_log.reads.inc();
                per_log.read_ns.record_duration(dur);
            }
        } else {
            self.read_errors.inc();
        }
    }

    /// Records one entrymap locate search from its [`LocateStats`]; the
    /// trace side is the caller's `locate` span.
    pub(crate) fn note_locate(&self, stats: &LocateStats, dur: Duration) {
        self.locates.inc();
        self.locate_memo_hits.add(stats.memo_hits);
        self.locate_latency.record_duration(dur);
        self.locate_blocks.record(stats.blocks_read);
        self.locate_depth.record(stats.max_level);
    }

    /// Counts a successful `create_log`; the trace side is the caller's
    /// `create_log` span.
    pub(crate) fn note_create(&self) {
        self.creates.inc();
    }

    /// Counts one republication of the read snapshot (an op republishes
    /// only when the snapshot would differ, so this tracks snapshot churn).
    pub(crate) fn note_view_publish(&self) {
        self.view_publishes.inc();
    }

    /// Counts the device writes a group commit saved: the forced appends
    /// it covered beyond the writes it issued (a lone forced append commits
    /// with one write, saving nothing). The batch itself is counted in its
    /// shard's series.
    pub(crate) fn note_writes_saved(&self, forced_covered: u64, device_writes: u64) {
        let saved = forced_covered.saturating_sub(device_writes.max(1));
        if saved > 0 {
            self.forced_writes_saved.add(saved);
        }
    }

    /// Adopts the shared block cache's counters into the registry and, when
    /// tracing is enabled, hooks the cache's single-flight loads into the
    /// trace ring.
    pub(crate) fn attach_cache(
        &self,
        cache: &Arc<clio_cache::BlockCache<clio_format::ParsedBlock>>,
    ) {
        cache.register_into(&self.registry);
        if self.trace.capacity() > 0 {
            cache.attach_trace(self.trace.clone());
        }
    }

    /// Publishes the per-phase recovery timings and totals as gauges, and
    /// traces one `recover` event.
    pub(crate) fn publish_recovery(&self, r: &RecoveryReport) {
        let set = |name: &str, v: u64| {
            self.registry
                .gauge(name)
                .set(i64::try_from(v).unwrap_or(i64::MAX));
        };
        set("clio_recovery_volumes", u64::from(r.volumes));
        set("clio_recovery_end_probes_total", r.end_probes);
        set("clio_recovery_rebuild_blocks_read", r.rebuild_blocks_read);
        set("clio_recovery_catalog_records", r.catalog_records);
        set("clio_recovery_end_locate_us", r.end_locate_us);
        set("clio_recovery_rebuild_us", r.rebuild_us);
        set("clio_recovery_catalog_us", r.catalog_us);
        set("clio_recovery_total_us", r.total_us);
    }

    /// Wraps a device so its ops land in this service's shared counters.
    #[must_use]
    pub(crate) fn instrument_device(&self, dev: SharedDevice) -> SharedDevice {
        Arc::new(InstrumentedDevice::new(dev, self.device_stats.clone()))
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
