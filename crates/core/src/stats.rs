//! Space-overhead accounting (§3.5).
//!
//! The paper analyzes per-entry space overhead as the sum of (1) the average
//! entry header size `h` and (2) the per-entry share `o_e` of entrymap log
//! entries, with `o_e ≤ (h + a(N/8 + c)) / (N − 1)` — usually far below the
//! header cost. The service counts every byte it writes so the §3.5 harness
//! can report measured values of all these quantities.

use std::sync::Arc;

use clio_obs::{Collector, Counter};
use clio_types::LogFileId;

/// One shard's space accounting (session-scoped: it is not persisted and
/// restarts from zero after recovery). Each field is this shard's stripe
/// of the `clio_space_*` series of the same name: written under the
/// shard's state lock, read by a scrape or [`SpaceReport::of`] without it.
#[derive(Default, Clone)]
pub(crate) struct Space {
    /// Client entries, their payload bytes, and their header + index-slot
    /// bytes.
    entries: Arc<Counter>,
    client_bytes: Arc<Counter>,
    header_bytes: Arc<Counter>,
    /// Entrymap log entries, and their bytes (payload + header + index
    /// slots).
    entrymap_entries: Arc<Counter>,
    entrymap_bytes: Arc<Counter>,
    /// Data blocks sealed onto the medium.
    blocks_sealed: Arc<Counter>,
    /// Bytes left unused in sealed blocks (internal fragmentation; grows
    /// with forced writes on pure WORM devices, §2.3.1).
    padding_bytes: Arc<Counter>,
    /// Every byte above plus catalog and bad-block records and block
    /// trailers: what the shard consumed on the device.
    device_bytes: Arc<Counter>,
}

impl Space {
    /// Emits this shard's stripe of each `clio_space_*` series.
    pub(crate) fn collect(&self, out: &mut Collector) {
        for (name, c) in [
            ("clio_space_entries", &self.entries),
            ("clio_space_client_bytes", &self.client_bytes),
            ("clio_space_header_bytes", &self.header_bytes),
            ("clio_space_entrymap_entries", &self.entrymap_entries),
            ("clio_space_entrymap_bytes", &self.entrymap_bytes),
            ("clio_space_blocks_sealed", &self.blocks_sealed),
            ("clio_space_padding_bytes", &self.padding_bytes),
            ("clio_space_device_bytes", &self.device_bytes),
        ] {
            out.counter(name, &[], c.get());
        }
    }

    /// Counts one record of log `id`: `payload` bytes plus `overhead`
    /// bytes of headers and index slots.
    pub(crate) fn note_entry(&self, id: LogFileId, payload: usize, overhead: usize) {
        let bytes = (payload + overhead) as u64;
        if !id.is_reserved() {
            self.entries.inc();
            self.client_bytes.add(payload as u64);
            self.header_bytes.add(overhead as u64);
        } else if id == LogFileId::ENTRYMAP {
            self.entrymap_entries.inc();
            self.entrymap_bytes.add(bytes);
        } else if id != LogFileId::CATALOG && id != LogFileId::BAD_BLOCK {
            return;
        }
        self.device_bytes.add(bytes);
    }

    /// Counts one sealed block and its unused and trailer bytes.
    pub(crate) fn note_sealed_block(&self, padding: usize, trailer: usize) {
        self.blocks_sealed.inc();
        self.padding_bytes.add(padding as u64);
        self.device_bytes.add((padding + trailer) as u64);
    }
}

/// The measured quantities §3.5 reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceReport {
    /// Client entries written.
    pub entries: u64,
    /// Client payload bytes written.
    pub client_bytes: u64,
    /// Average client entry size `d`.
    pub avg_entry_size: f64,
    /// Average per-entry header + index overhead `h + 2`.
    pub avg_header_overhead: f64,
    /// Average per-entry entrymap overhead `o_e`.
    pub avg_entrymap_overhead: f64,
    /// Entrymap entries written.
    pub entrymap_entries: u64,
    /// Blocks sealed.
    pub blocks_sealed: u64,
    /// Internal fragmentation bytes.
    pub padding_bytes: u64,
    /// Total bytes consumed on the device (excluding volume labels).
    pub device_bytes: u64,
}

impl SpaceReport {
    /// The report over `shards`' accounting.
    pub(crate) fn of<'a>(shards: impl Iterator<Item = &'a Space> + Clone) -> SpaceReport {
        let sum = |field: fn(&Space) -> &Counter| shards.clone().map(|s| field(s).get()).sum();
        let entries: u64 = sum(|s| &s.entries);
        let client_bytes: u64 = sum(|s| &s.client_bytes);
        let per_entry = |bytes: u64| bytes as f64 / entries.max(1) as f64;
        SpaceReport {
            entries,
            client_bytes,
            avg_entry_size: per_entry(client_bytes),
            avg_header_overhead: per_entry(sum(|s| &s.header_bytes)),
            avg_entrymap_overhead: per_entry(sum(|s| &s.entrymap_bytes)),
            entrymap_entries: sum(|s| &s.entrymap_entries),
            blocks_sealed: sum(|s| &s.blocks_sealed),
            padding_bytes: sum(|s| &s.padding_bytes),
            device_bytes: sum(|s| &s.device_bytes),
        }
    }

    /// Header overhead as a percentage of total entry bytes — the paper's
    /// `400/(d+4)` percent for a `d`-byte entry with the minimal header,
    /// "less than 10% for entries with more than 36 bytes of client data"
    /// (§2.2).
    #[must_use]
    pub fn header_overhead_pct(&self) -> f64 {
        let header = self.avg_header_overhead * self.entries as f64;
        let total = self.client_bytes as f64 + header;
        if total == 0.0 {
            return 0.0;
        }
        100.0 * header / total
    }
}

impl std::fmt::Display for SpaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "entries={} client_bytes={} device_bytes={} blocks_sealed={} \
             padding_bytes={} avg_entry={:.1}B header_overhead={:.1}% \
             entrymap_overhead={:.1}B/entry",
            self.entries,
            self.client_bytes,
            self.device_bytes,
            self.blocks_sealed,
            self.padding_bytes,
            self.avg_entry_size,
            self.header_overhead_pct(),
            self.avg_entrymap_overhead
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_obs::{MetricSource, MetricValue, MetricsRegistry};

    const CLIENT: LogFileId = LogFileId(8);

    fn space() -> Space {
        Space::default()
    }

    impl MetricSource for Space {
        fn collect(&self, out: &mut Collector) {
            Space::collect(self, out);
        }
    }

    #[test]
    fn display_is_one_line() {
        let s = space();
        s.note_entry(CLIENT, 50, 4);
        let line = format!("{}", SpaceReport::of(std::iter::once(&s)));
        assert!(line.contains("entries=1"));
        assert!(line.contains("client_bytes=50"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn accounting_sums() {
        let s = space();
        s.note_entry(CLIENT, 50, 4);
        s.note_entry(CLIENT, 30, 12);
        s.note_entry(CLIENT, 20, 4);
        s.note_entry(LogFileId::ENTRYMAP, 36, 4);
        s.note_entry(LogFileId::CATALOG, 21, 4);
        s.note_sealed_block(100, 18);
        let r = SpaceReport::of(std::iter::once(&s));
        assert_eq!(r.entries, 3);
        assert_eq!(r.client_bytes, 100);
        assert!((r.avg_entry_size - 100.0 / 3.0).abs() < 1e-9);
        assert!((r.avg_entrymap_overhead - 40.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.device_bytes, 100 + 20 + 40 + 25 + 100 + 18);
        assert!((r.header_overhead_pct() - 100.0 * 20.0 / 120.0).abs() < 1e-9);
    }

    #[test]
    fn paper_header_overhead_example() {
        // §2.2: 4-byte overhead on 36 bytes of data is under 10%.
        let s = space();
        for _ in 0..100 {
            s.note_entry(CLIENT, 37, 4);
        }
        assert!(SpaceReport::of(std::iter::once(&s)).header_overhead_pct() < 10.0 + 1e-9);
    }

    #[test]
    fn report_and_series_sum_every_shard() {
        let reg = MetricsRegistry::new();
        let (a, b) = (space(), space());
        reg.register(Arc::new(a.clone()));
        reg.register(Arc::new(b.clone()));
        a.note_entry(CLIENT, 50, 4);
        a.note_entry(LogFileId::ENTRYMAP, 36, 4);
        a.note_sealed_block(10, 18);
        b.note_entry(CLIENT, 30, 4);
        b.note_entry(CLIENT, 20, 4);
        b.note_entry(LogFileId::BAD_BLOCK, 21, 4);
        b.note_sealed_block(5, 18);
        let of = |shards: &[&Space]| SpaceReport::of(shards.iter().copied());
        let (ra, rb, both) = (of(&[&a]), of(&[&b]), of(&[&a, &b]));
        assert_eq!(both.entries, 3);
        assert_eq!(both.client_bytes, 100);
        assert_eq!(both.blocks_sealed, 2);
        assert_eq!(both.padding_bytes, 15);
        assert_eq!(both.device_bytes, ra.device_bytes + rb.device_bytes);
        assert!((both.avg_header_overhead - 4.0).abs() < 1e-9);
        let series = |name: &str| {
            reg.gather()
                .into_iter()
                .find(|s| s.name == name)
                .map(|s| s.value)
        };
        assert_eq!(
            series("clio_space_device_bytes"),
            Some(MetricValue::Counter(both.device_bytes))
        );
        assert_eq!(
            series("clio_space_header_bytes"),
            Some(MetricValue::Counter(12))
        );
        assert_eq!(
            series("clio_space_entrymap_bytes"),
            Some(MetricValue::Counter(40))
        );
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SpaceReport::of(std::iter::once(&space()));
        assert_eq!(r.entries, 0);
        assert_eq!(r.header_overhead_pct(), 0.0);
    }
}
