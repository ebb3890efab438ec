//! Device instrumentation.
//!
//! Every evaluation number in the paper reduces to counts of physical device
//! operations (block reads, appends, seeks) times per-operation costs.
//! [`InstrumentedDevice`] wraps any [`LogDevice`] and counts those operations
//! so that the benchmark harness can report both raw counts and modelled
//! latencies (see `clio-costmodel`). Successful and failed operations are counted
//! separately — fault-injection runs assert on the error counters — and
//! each op kind feeds a wall-clock latency [`Histogram`].

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use clio_obs::clock::{self, Reading};
use clio_obs::{
    Collector, Counter, Histogram, MetricSource, MetricsRegistry, SpanGuard, TraceRing,
};
use clio_testkit::sync::atomic::{AtomicI64, Ordering};
use clio_types::{BlockNo, Result};

use crate::traits::{LogDevice, SharedDevice};

/// Shared operation counters for one device set: the `clio_device_*`
/// series of the registry it registered with.
#[derive(Debug, Default)]
pub struct DeviceStats {
    /// When attached, device writes (single-block and vectored) record
    /// `device_write` spans here, nesting under whatever operation span is
    /// open on the writing thread. Write-once only; reads are traced at
    /// the service layer (per-block read spans would flood the ring).
    trace: OnceLock<Arc<TraceRing>>,
    /// Block reads served by the device.
    pub reads: Arc<Counter>,
    /// Blocks appended (singly or in vectored batches).
    pub appends: Arc<Counter>,
    /// Blocks invalidated.
    pub invalidations: Arc<Counter>,
    /// Tail-buffer rewrites.
    pub tail_rewrites: Arc<Counter>,
    /// `is_written` probes (binary-search end location).
    pub end_probes: Arc<Counter>,
    /// Failed block reads.
    pub read_errors: Arc<Counter>,
    /// Failed block appends.
    pub append_errors: Arc<Counter>,
    /// Failed invalidations.
    pub invalidate_errors: Arc<Counter>,
    /// Failed tail rewrites.
    pub tail_rewrite_errors: Arc<Counter>,
    /// Failed `is_written` probes.
    pub probe_errors: Arc<Counter>,
    /// Operations whose block was not at or adjacent to the previous
    /// operation's block (a head seek on a physical drive).
    pub seeks: Arc<Counter>,
    /// Sum of absolute seek distances in blocks.
    pub seek_distance: Arc<Counter>,
    /// One past the position of the last access; 0 means "no access yet".
    last_end: AtomicI64,
    /// Wall-clock latency of successful block reads, in nanoseconds.
    pub read_latency_ns: Arc<Histogram>,
    /// Wall-clock latency of successful block appends, in nanoseconds.
    pub append_latency_ns: Arc<Histogram>,
    /// Wall-clock latency of `is_written` probes, in nanoseconds.
    pub probe_latency_ns: Arc<Histogram>,
    /// Blocks per successful vectored batch: its count is the batches
    /// issued (each one physical device write), its sum the blocks
    /// written through them, which `appends` counts too.
    pub append_batch_blocks: Arc<Histogram>,
    /// Wall-clock latency of successful vectored batches, in nanoseconds.
    pub append_batch_latency_ns: Arc<Histogram>,
}

impl DeviceStats {
    /// Fresh counters and latency histograms, registered with `reg` as
    /// one source of the `clio_device_*` series.
    #[must_use]
    pub fn new(reg: &MetricsRegistry) -> Arc<DeviceStats> {
        let stats = Arc::<DeviceStats>::default();
        reg.register(stats.clone());
        stats
    }

    /// Attaches the service's trace ring so device writes record
    /// `device_write` spans. First attach wins; later calls are ignored
    /// (the stats block is shared across every device of one service).
    pub fn attach_trace(&self, ring: Arc<TraceRing>) {
        let _ = self.trace.set(ring);
    }

    /// Opens a `device_write` span at `start` when a trace ring is
    /// attached.
    fn write_span(&self, start: Reading, blocks: u64) -> Option<SpanGuard<'_>> {
        let mut span = self.trace.get()?.span_at("device_write", start);
        span.attr("blocks", blocks);
        Some(span)
    }

    fn touch(&self, block: BlockNo) {
        let pos = block.0 as i64;
        let prev_end = self.last_end.swap(pos + 1, Ordering::Relaxed);
        if prev_end > 0 {
            let dist = (pos - (prev_end - 1)).unsigned_abs();
            // Sequential (same or next block) accesses do not seek.
            if dist > 1 {
                self.seeks.inc();
                self.seek_distance.add(dist);
            }
        }
    }

    /// Physical write operations to the device: single-block appends plus
    /// one per vectored batch, however many blocks the batch carried. The
    /// group-commit benchmark's appends-per-device-write ratio divides
    /// logical appends by the delta of this.
    #[must_use]
    pub fn write_ops(&self) -> u64 {
        self.append_latency_ns.snapshot().count + self.append_batch_blocks.snapshot().count
    }

    /// Total failed operations of any kind.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.read_errors.get()
            + self.append_errors.get()
            + self.invalidate_errors.get()
            + self.tail_rewrite_errors.get()
            + self.probe_errors.get()
    }
}

impl MetricSource for DeviceStats {
    fn collect(&self, out: &mut Collector) {
        for (name, c) in [
            ("clio_device_reads_total", &self.reads),
            ("clio_device_appends_total", &self.appends),
            ("clio_device_invalidations_total", &self.invalidations),
            ("clio_device_tail_rewrites_total", &self.tail_rewrites),
            ("clio_device_end_probes_total", &self.end_probes),
            ("clio_device_read_errors_total", &self.read_errors),
            ("clio_device_append_errors_total", &self.append_errors),
            (
                "clio_device_invalidate_errors_total",
                &self.invalidate_errors,
            ),
            (
                "clio_device_tail_rewrite_errors_total",
                &self.tail_rewrite_errors,
            ),
            ("clio_device_probe_errors_total", &self.probe_errors),
            ("clio_device_seeks_total", &self.seeks),
            ("clio_device_seek_distance_blocks", &self.seek_distance),
        ] {
            out.counter(name, &[], c.get());
        }
        for (name, h) in [
            ("clio_device_read_latency_ns", &self.read_latency_ns),
            ("clio_device_append_latency_ns", &self.append_latency_ns),
            ("clio_device_probe_latency_ns", &self.probe_latency_ns),
            ("clio_device_append_batch_blocks", &self.append_batch_blocks),
            (
                "clio_device_append_batch_latency_ns",
                &self.append_batch_latency_ns,
            ),
        ] {
            out.histogram(name, &[], &h.snapshot());
        }
    }
}

/// Closes a device write's span, if any, at the one reading that also
/// ends its latency; returns that latency.
fn close(span: Option<SpanGuard<'_>>, start: Reading) -> Duration {
    let end = clock::read();
    if let Some(span) = span {
        span.close_at(end);
    }
    end.since(start)
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
        let start = clock::read();
        let r = self.inner.is_written(block);
        if r.is_ok() {
            self.stats
                .probe_latency_ns
                .record_duration(clock::read().since(start));
            self.stats.end_probes.inc();
            self.stats.touch(block);
        } else {
            self.stats.probe_errors.inc();
        }
        r
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        let start = clock::read();
        let mut span = self.stats.write_span(start, 1);
        match self.inner.append_block(expected, data) {
            Ok(()) => {
                self.stats
                    .append_latency_ns
                    .record_duration(close(span, start));
                self.stats.appends.inc();
                self.stats.touch(expected);
                Ok(())
            }
            Err(e) => {
                if let Some(s) = &mut span {
                    s.fail("io_error");
                }
                self.stats.append_errors.inc();
                Err(e)
            }
        }
    }

    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        let n = blocks.len() as u64;
        let start = clock::read();
        let mut span = self.stats.write_span(start, n);
        match self.inner.append_blocks(expected, blocks) {
            Ok(()) => {
                self.stats
                    .append_batch_latency_ns
                    .record_duration(close(span, start));
                self.stats.append_batch_blocks.record(n);
                self.stats.appends.add(n);
                self.stats.touch(expected);
                self.stats
                    .last_end
                    .store((expected.0 + n) as i64, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                if let Some(s) = &mut span {
                    s.fail("io_error");
                }
                self.stats.append_errors.inc();
                Err(e)
            }
        }
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        let start = clock::read();
        match self.inner.read_block(block, buf) {
            Ok(()) => {
                self.stats
                    .read_latency_ns
                    .record_duration(clock::read().since(start));
                self.stats.reads.inc();
                self.stats.touch(block);
                Ok(())
            }
            Err(e) => {
                self.stats.read_errors.inc();
                Err(e)
            }
        }
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        match self.inner.invalidate_block(block) {
            Ok(()) => {
                self.stats.invalidations.inc();
                self.stats.touch(block);
                Ok(())
            }
            Err(e) => {
                self.stats.invalidate_errors.inc();
                Err(e)
            }
        }
    }

    fn rewrite_tail(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        match self.inner.rewrite_tail(block, data) {
            Ok(()) => {
                self.stats.tail_rewrites.inc();
                // Tail rewrites hit NV-RAM, not the disk head: no seek accounting.
                Ok(())
            }
            Err(e) => {
                self.stats.tail_rewrite_errors.inc();
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
    use crate::MemWormDevice;

    fn instrumented() -> (InstrumentedDevice, Arc<DeviceStats>) {
        let stats = DeviceStats::new(&MetricsRegistry::new());
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
        assert_eq!(stats.appends.get(), 4);
        assert_eq!(stats.reads.get(), 2);
        assert_eq!(stats.errors(), 0);
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
        assert_eq!(stats.reads.get(), 0);
        assert_eq!(stats.appends.get(), 0);
        assert_eq!(stats.read_errors.get(), 1);
        assert_eq!(stats.append_errors.get(), 1);
        assert_eq!(stats.errors(), 2);
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
        assert_eq!(stats.seeks.get(), 0);
        let mut buf = vec![0u8; 32];
        dev.read_block(BlockNo(0), &mut buf).unwrap(); // seek of 9, back from the end
        dev.read_block(BlockNo(1), &mut buf).unwrap(); // sequential
        dev.read_block(BlockNo(9), &mut buf).unwrap(); // seek of 8
        dev.read_block(BlockNo(2), &mut buf).unwrap(); // seek of 7
        assert_eq!(stats.seeks.get(), 3);
        assert_eq!(stats.seek_distance.get(), 24);
    }

    #[test]
    fn counts_are_the_registry_series() {
        let reg = MetricsRegistry::new();
        let dev =
            InstrumentedDevice::new(Arc::new(MemWormDevice::new(32, 64)), DeviceStats::new(&reg));
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
}
