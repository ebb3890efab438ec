//! Device instrumentation.
//!
//! Every evaluation number in the paper reduces to counts of physical device
//! operations (block reads, appends, seeks) times per-operation costs.
//! [`InstrumentedDevice`] wraps any [`LogDevice`] and counts those operations
//! so that the benchmark harness can report both raw counts and modelled
//! latencies (see `clio-sim`). Successful and failed operations are counted
//! separately — fault-injection runs assert on the error counters — and
//! each op kind feeds a wall-clock latency [`Histogram`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use clio_obs::{Histogram, MetricsRegistry, TraceRing};
use clio_types::{BlockNo, Result};

use crate::traits::{LogDevice, SharedDevice};

/// Shared operation counters for one device.
#[derive(Debug, Default)]
pub struct DeviceStats {
    /// When attached, device writes (single-block and vectored) record
    /// `device_write` spans here, nesting under whatever operation span is
    /// open on the writing thread. Write-once only; reads are traced at
    /// the service layer (per-block read spans would flood the ring).
    trace: OnceLock<Arc<TraceRing>>,
    reads: AtomicU64,
    appends: AtomicU64,
    invalidations: AtomicU64,
    tail_rewrites: AtomicU64,
    end_probes: AtomicU64,
    read_errors: AtomicU64,
    append_errors: AtomicU64,
    invalidate_errors: AtomicU64,
    tail_rewrite_errors: AtomicU64,
    probe_errors: AtomicU64,
    /// Number of operations whose block was not at or adjacent to the
    /// previous operation's block (a head seek on a physical drive).
    seeks: AtomicU64,
    /// Sum of absolute seek distances in blocks.
    seek_distance: AtomicU64,
    /// Position of the last access; -1 means "no access yet".
    last_pos: AtomicI64,
    /// Vectored `append_blocks` batches issued (each is one physical device
    /// write regardless of how many blocks it carries).
    batch_appends: AtomicU64,
    /// Blocks written through vectored batches (also counted in `appends`).
    batch_blocks: AtomicU64,
    /// Wall-clock latency of successful block reads, in nanoseconds.
    pub read_latency_ns: Arc<Histogram>,
    /// Wall-clock latency of successful block appends, in nanoseconds.
    pub append_latency_ns: Arc<Histogram>,
    /// Wall-clock latency of `is_written` probes, in nanoseconds.
    pub probe_latency_ns: Arc<Histogram>,
    /// Blocks per successful vectored batch.
    pub append_batch_blocks: Arc<Histogram>,
    /// Wall-clock latency of successful vectored batches, in nanoseconds.
    pub append_batch_latency_ns: Arc<Histogram>,
}

/// A point-in-time copy of [`DeviceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Block reads served by the device.
    pub reads: u64,
    /// Blocks appended.
    pub appends: u64,
    /// Blocks invalidated.
    pub invalidations: u64,
    /// Tail-buffer rewrites.
    pub tail_rewrites: u64,
    /// `is_written` probes (binary-search end location).
    pub end_probes: u64,
    /// Failed block reads.
    pub read_errors: u64,
    /// Failed block appends.
    pub append_errors: u64,
    /// Failed invalidations.
    pub invalidate_errors: u64,
    /// Failed tail rewrites.
    pub tail_rewrite_errors: u64,
    /// Failed `is_written` probes.
    pub probe_errors: u64,
    /// Non-sequential accesses (head seeks).
    pub seeks: u64,
    /// Total seek distance in blocks.
    pub seek_distance: u64,
    /// Vectored batches issued.
    pub batch_appends: u64,
    /// Blocks written through vectored batches.
    pub batch_blocks: u64,
}

impl StatsSnapshot {
    /// Physical write operations to the device: single-block appends plus
    /// one per vectored batch, however many blocks the batch carried. The
    /// group-commit benchmark's appends-per-device-write ratio divides
    /// logical appends by the delta of this.
    #[must_use]
    pub fn write_ops(&self) -> u64 {
        self.appends - self.batch_blocks + self.batch_appends
    }

    /// Total failed operations of any kind.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.read_errors
            + self.append_errors
            + self.invalidate_errors
            + self.tail_rewrite_errors
            + self.probe_errors
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} appends={} probes={} invalidations={} tail_rewrites={} \
             seeks={} seek_dist={} errors={}",
            self.reads,
            self.appends,
            self.end_probes,
            self.invalidations,
            self.tail_rewrites,
            self.seeks,
            self.seek_distance,
            self.errors()
        )
    }
}

/// A statistics counter's current value (publishes nothing: `Relaxed`).
fn ld(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl DeviceStats {
    /// Creates a fresh, zeroed stats block.
    #[must_use]
    pub fn new() -> Arc<DeviceStats> {
        Arc::new(DeviceStats {
            last_pos: AtomicI64::new(-1),
            ..DeviceStats::default()
        })
    }

    /// Attaches the service's trace ring so device writes record
    /// `device_write` spans. First attach wins; later calls are ignored
    /// (the stats block is shared across every device of one service).
    pub fn attach_trace(&self, ring: Arc<TraceRing>) {
        let _ = self.trace.set(ring);
    }

    /// Opens a `device_write` span when a trace ring is attached.
    fn write_span(&self, blocks: u64) -> Option<clio_obs::SpanGuard<'_>> {
        let ring = self.trace.get()?;
        let mut span = ring.span("device_write");
        span.attr("blocks", blocks);
        Some(span)
    }

    fn touch(&self, block: BlockNo) {
        let pos = block.0 as i64;
        let prev = self.last_pos.swap(pos, Ordering::Relaxed);
        if prev >= 0 {
            let dist = (pos - prev).unsigned_abs();
            // Sequential (same or next block) accesses do not seek.
            if dist > 1 {
                self.seeks.fetch_add(1, Ordering::Relaxed);
                self.seek_distance.fetch_add(dist, Ordering::Relaxed);
            }
        }
    }

    /// Copies the counters.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: ld(&self.reads),
            appends: ld(&self.appends),
            invalidations: ld(&self.invalidations),
            tail_rewrites: ld(&self.tail_rewrites),
            end_probes: ld(&self.end_probes),
            read_errors: ld(&self.read_errors),
            append_errors: ld(&self.append_errors),
            invalidate_errors: ld(&self.invalidate_errors),
            tail_rewrite_errors: ld(&self.tail_rewrite_errors),
            probe_errors: ld(&self.probe_errors),
            seeks: ld(&self.seeks),
            seek_distance: ld(&self.seek_distance),
            batch_appends: ld(&self.batch_appends),
            batch_blocks: ld(&self.batch_blocks),
        }
    }

    /// Registers every counter and latency histogram into `reg` under the
    /// `clio_device_*` namespace.
    pub fn register_into(self: &Arc<DeviceStats>, reg: &MetricsRegistry) {
        type Field = fn(&StatsSnapshot) -> u64;
        let counters: [(&str, Field); 12] = [
            ("clio_device_reads_total", |s| s.reads),
            ("clio_device_appends_total", |s| s.appends),
            ("clio_device_invalidations_total", |s| s.invalidations),
            ("clio_device_tail_rewrites_total", |s| s.tail_rewrites),
            ("clio_device_end_probes_total", |s| s.end_probes),
            ("clio_device_read_errors_total", |s| s.read_errors),
            ("clio_device_append_errors_total", |s| s.append_errors),
            ("clio_device_invalidate_errors_total", |s| {
                s.invalidate_errors
            }),
            ("clio_device_tail_rewrite_errors_total", |s| {
                s.tail_rewrite_errors
            }),
            ("clio_device_probe_errors_total", |s| s.probe_errors),
            ("clio_device_seeks_total", |s| s.seeks),
            ("clio_device_batch_appends_total", |s| s.batch_appends),
        ];
        for (name, read) in counters {
            let stats = self.clone();
            reg.register_counter_fn(name, move || read(&stats.snapshot()));
        }
        let stats = self.clone();
        reg.register_counter_fn("clio_device_seek_distance_blocks", move || {
            stats.snapshot().seek_distance
        });
        reg.register_histogram("clio_device_read_latency_ns", self.read_latency_ns.clone());
        reg.register_histogram(
            "clio_device_append_latency_ns",
            self.append_latency_ns.clone(),
        );
        reg.register_histogram(
            "clio_device_probe_latency_ns",
            self.probe_latency_ns.clone(),
        );
        reg.register_histogram(
            "clio_device_append_batch_blocks",
            self.append_batch_blocks.clone(),
        );
        reg.register_histogram(
            "clio_device_append_batch_latency_ns",
            self.append_batch_latency_ns.clone(),
        );
    }
}

/// A [`LogDevice`] wrapper that records operation counts, error counts and
/// per-op latency in a shared [`DeviceStats`].
pub struct InstrumentedDevice {
    inner: SharedDevice,
    stats: Arc<DeviceStats>,
}

impl InstrumentedDevice {
    /// Wraps `inner`; callers keep a clone of `stats` to read the counters.
    #[must_use]
    pub fn new(inner: SharedDevice, stats: Arc<DeviceStats>) -> InstrumentedDevice {
        InstrumentedDevice { inner, stats }
    }

    /// The shared counters.
    #[must_use]
    pub fn stats(&self) -> Arc<DeviceStats> {
        self.stats.clone()
    }
}

impl LogDevice for InstrumentedDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn query_end(&self) -> Option<BlockNo> {
        self.inner.query_end()
    }

    fn is_written(&self, block: BlockNo) -> Result<bool> {
        let start = clio_obs::clock::now();
        let r = self.inner.is_written(block);
        if r.is_ok() {
            self.stats.probe_latency_ns.record_duration(start.elapsed());
            self.stats.end_probes.fetch_add(1, Ordering::Relaxed);
            self.stats.touch(block);
        } else {
            self.stats.probe_errors.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        let mut span = self.stats.write_span(1);
        let start = clio_obs::clock::now();
        match self.inner.append_block(expected, data) {
            Ok(()) => {
                self.stats
                    .append_latency_ns
                    .record_duration(start.elapsed());
                self.stats.appends.fetch_add(1, Ordering::Relaxed);
                self.stats.touch(expected);
                Ok(())
            }
            Err(e) => {
                if let Some(s) = &mut span {
                    s.fail("io_error");
                }
                self.stats.append_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        let n = blocks.len() as u64;
        let mut span = self.stats.write_span(n);
        let start = clio_obs::clock::now();
        match self.inner.append_blocks(expected, blocks) {
            Ok(()) => {
                self.stats
                    .append_batch_latency_ns
                    .record_duration(start.elapsed());
                self.stats.append_batch_blocks.record(n);
                self.stats.batch_appends.fetch_add(1, Ordering::Relaxed);
                self.stats.batch_blocks.fetch_add(n, Ordering::Relaxed);
                self.stats.appends.fetch_add(n, Ordering::Relaxed);
                self.stats.touch(expected);
                self.stats
                    .last_pos
                    .store((expected.0 + n - 1) as i64, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                if let Some(s) = &mut span {
                    s.fail("io_error");
                }
                self.stats.append_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        let start = clio_obs::clock::now();
        match self.inner.read_block(block, buf) {
            Ok(()) => {
                self.stats.read_latency_ns.record_duration(start.elapsed());
                self.stats.reads.fetch_add(1, Ordering::Relaxed);
                self.stats.touch(block);
                Ok(())
            }
            Err(e) => {
                self.stats.read_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        match self.inner.invalidate_block(block) {
            Ok(()) => {
                self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
                self.stats.touch(block);
                Ok(())
            }
            Err(e) => {
                self.stats.invalidate_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn rewrite_tail(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        match self.inner.rewrite_tail(block, data) {
            Ok(()) => {
                self.stats.tail_rewrites.fetch_add(1, Ordering::Relaxed);
                // Tail rewrites hit NV-RAM, not the disk head: no seek accounting.
                Ok(())
            }
            Err(e) => {
                self.stats
                    .tail_rewrite_errors
                    .fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn supports_tail_rewrite(&self) -> bool {
        self.inner.supports_tail_rewrite()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemWormDevice;

    fn instrumented() -> (InstrumentedDevice, Arc<DeviceStats>) {
        let stats = DeviceStats::new();
        let dev = InstrumentedDevice::new(Arc::new(MemWormDevice::new(32, 64)), stats.clone());
        (dev, stats)
    }

    #[test]
    fn counts_reads_and_appends() {
        let (dev, stats) = instrumented();
        let blk = vec![0u8; 32];
        for i in 0..4 {
            dev.append_block(BlockNo(i), &blk).unwrap();
        }
        let mut buf = vec![0u8; 32];
        dev.read_block(BlockNo(2), &mut buf).unwrap();
        dev.read_block(BlockNo(3), &mut buf).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.appends, 4);
        assert_eq!(s.reads, 2);
        assert_eq!(s.errors(), 0);
        // Every successful op also recorded a latency sample.
        assert_eq!(stats.append_latency_ns.snapshot().count, 4);
        assert_eq!(stats.read_latency_ns.snapshot().count, 2);
    }

    #[test]
    fn failed_ops_count_as_errors_not_successes() {
        let (dev, stats) = instrumented();
        let mut buf = vec![0u8; 32];
        assert!(dev.read_block(BlockNo(0), &mut buf).is_err());
        assert!(dev.append_block(BlockNo(5), &[0u8; 32]).is_err());
        let s = stats.snapshot();
        assert_eq!(s.reads, 0);
        assert_eq!(s.appends, 0);
        assert_eq!(s.read_errors, 1);
        assert_eq!(s.append_errors, 1);
        assert_eq!(s.errors(), 2);
        // Failures do not pollute the latency distributions.
        assert!(stats.read_latency_ns.snapshot().is_empty());
        assert!(stats.append_latency_ns.snapshot().is_empty());
    }

    #[test]
    fn seeks_count_nonsequential_accesses() {
        let (dev, stats) = instrumented();
        let blk = vec![0u8; 32];
        for i in 0..10 {
            dev.append_block(BlockNo(i), &blk).unwrap(); // first access, then sequential
        }
        assert_eq!(stats.snapshot().seeks, 0);
        let mut buf = vec![0u8; 32];
        dev.read_block(BlockNo(0), &mut buf).unwrap(); // seek of 9, back from the end
        dev.read_block(BlockNo(1), &mut buf).unwrap(); // sequential
        dev.read_block(BlockNo(9), &mut buf).unwrap(); // seek of 8
        dev.read_block(BlockNo(2), &mut buf).unwrap(); // seek of 7
        let s = stats.snapshot();
        assert_eq!(s.seeks, 3);
        assert_eq!(s.seek_distance, 24);
    }

    #[test]
    fn registers_into_a_registry() {
        let (dev, stats) = instrumented();
        let reg = MetricsRegistry::new();
        stats.register_into(&reg);
        dev.append_block(BlockNo(0), &[0u8; 32]).unwrap();
        let mut buf = vec![0u8; 32];
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        let text = clio_obs::expo::render_prometheus(&reg);
        assert!(text.contains("clio_device_reads_total 1"));
        assert!(text.contains("clio_device_appends_total 1"));
        assert!(text.contains("clio_device_read_latency_ns_count 1"));
    }

    #[test]
    fn attached_trace_records_device_write_spans() {
        let (dev, stats) = instrumented();
        let ring = Arc::new(TraceRing::new(8));
        stats.attach_trace(ring.clone());
        dev.append_block(BlockNo(0), &[0u8; 32]).unwrap();
        dev.append_blocks(BlockNo(1), &[&[0u8; 32], &[0u8; 32]])
            .unwrap();
        assert!(dev.append_block(BlockNo(9), &[0u8; 32]).is_err());
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.name == "device_write"));
        assert_eq!(
            &spans[1].attrs[..],
            &[("blocks", clio_obs::AttrValue::U64(2))]
        );
        assert_eq!(spans[2].outcome, "io_error");
    }

    #[test]
    fn snapshot_display_is_one_line() {
        let (dev, stats) = instrumented();
        dev.append_block(BlockNo(0), &[0u8; 32]).unwrap();
        let line = format!("{}", stats.snapshot());
        assert!(line.contains("appends=1"));
        assert!(line.contains("errors=0"));
        assert!(!line.contains('\n'));
    }
}
