//! Space-overhead accounting (§3.5).
//!
//! The paper analyzes per-entry space overhead as the sum of (1) the average
//! entry header size `h` and (2) the per-entry share `o_e` of entrymap log
//! entries, with `o_e ≤ (h + a(N/8 + c)) / (N − 1)` — usually far below the
//! header cost. The service counts every byte it writes so the §3.5 harness
//! can report measured values of all these quantities.

use clio_types::LogFileId;

/// Running space accounting for a service instance (session-scoped; it is
/// not persisted and restarts from zero after recovery).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Total client entries appended.
    pub entries: u64,
    /// Total client payload bytes.
    pub client_bytes: u64,
    /// Total header + index-slot bytes for client entries.
    pub header_bytes: u64,
    /// Entrymap log entries written.
    pub entrymap_entries: u64,
    /// Bytes of entrymap records (payload + header + index slots).
    pub entrymap_bytes: u64,
    /// Bytes of catalog records.
    pub catalog_bytes: u64,
    /// Bytes of bad-block records.
    pub badblock_bytes: u64,
    /// Data blocks sealed onto the medium.
    pub blocks_sealed: u64,
    /// Bytes left unused in sealed blocks (internal fragmentation; grows
    /// with forced writes on pure WORM devices, §2.3.1).
    pub padding_bytes: u64,
    /// Fixed per-block trailer bytes.
    pub trailer_bytes: u64,
}

impl SpaceStats {
    pub(crate) fn note_client_entry(&mut self, payload: usize, overhead: usize) {
        self.entries += 1;
        self.client_bytes += payload as u64;
        self.header_bytes += overhead as u64;
    }

    pub(crate) fn note_service_entry(&mut self, id: LogFileId, total_bytes: usize) {
        match id {
            LogFileId::ENTRYMAP => {
                self.entrymap_entries += 1;
                self.entrymap_bytes += total_bytes as u64;
            }
            LogFileId::CATALOG => self.catalog_bytes += total_bytes as u64,
            LogFileId::BAD_BLOCK => self.badblock_bytes += total_bytes as u64,
            _ => {}
        }
    }

    pub(crate) fn note_sealed_block(&mut self, padding: usize, trailer: usize) {
        self.blocks_sealed += 1;
        self.padding_bytes += padding as u64;
        self.trailer_bytes += trailer as u64;
    }

    /// Folds another accounting into this one — how the sharded service
    /// derives whole-service totals from its per-shard accountants.
    pub fn merge(&mut self, other: &SpaceStats) {
        self.entries += other.entries;
        self.client_bytes += other.client_bytes;
        self.header_bytes += other.header_bytes;
        self.entrymap_entries += other.entrymap_entries;
        self.entrymap_bytes += other.entrymap_bytes;
        self.catalog_bytes += other.catalog_bytes;
        self.badblock_bytes += other.badblock_bytes;
        self.blocks_sealed += other.blocks_sealed;
        self.padding_bytes += other.padding_bytes;
        self.trailer_bytes += other.trailer_bytes;
    }

    /// Derives the §3.5 report.
    #[must_use]
    pub fn report(&self) -> SpaceReport {
        let entries = self.entries.max(1) as f64;
        SpaceReport {
            entries: self.entries,
            client_bytes: self.client_bytes,
            avg_entry_size: self.client_bytes as f64 / entries,
            avg_header_overhead: self.header_bytes as f64 / entries,
            avg_entrymap_overhead: self.entrymap_bytes as f64 / entries,
            entrymap_entries: self.entrymap_entries,
            blocks_sealed: self.blocks_sealed,
            padding_bytes: self.padding_bytes,
            device_bytes: self.client_bytes
                + self.header_bytes
                + self.entrymap_bytes
                + self.catalog_bytes
                + self.badblock_bytes
                + self.padding_bytes
                + self.trailer_bytes,
        }
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

    #[test]
    fn display_is_one_line() {
        let mut s = SpaceStats::default();
        s.note_client_entry(50, 4);
        let line = format!("{}", s.report());
        assert!(line.contains("entries=1"));
        assert!(line.contains("client_bytes=50"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn accounting_sums() {
        let mut s = SpaceStats::default();
        s.note_client_entry(50, 4);
        s.note_client_entry(30, 12);
        s.note_client_entry(20, 4);
        assert_eq!(s.entries, 3);
        assert_eq!(s.client_bytes, 100);
        assert_eq!(s.header_bytes, 20);
        s.note_service_entry(LogFileId::ENTRYMAP, 40);
        s.note_service_entry(LogFileId::CATALOG, 25);
        s.note_sealed_block(100, 18);
        let r = s.report();
        assert_eq!(r.entries, 3);
        assert!((r.avg_entry_size - 100.0 / 3.0).abs() < 1e-9);
        assert!((r.avg_entrymap_overhead - 40.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.device_bytes, 100 + 20 + 40 + 25 + 100 + 18);
        assert!((r.header_overhead_pct() - 100.0 * 20.0 / 120.0).abs() < 1e-9);
    }

    #[test]
    fn paper_header_overhead_example() {
        // §2.2: 4-byte overhead on 36 bytes of data is under 10%.
        let mut s = SpaceStats::default();
        for _ in 0..100 {
            s.note_client_entry(37, 4);
        }
        assert!(s.report().header_overhead_pct() < 10.0 + 1e-9);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = SpaceStats::default();
        a.note_client_entry(50, 4);
        a.note_service_entry(LogFileId::ENTRYMAP, 40);
        a.note_sealed_block(10, 18);
        let mut b = SpaceStats::default();
        b.note_client_entry(30, 4);
        b.note_client_entry(20, 4);
        b.note_service_entry(LogFileId::CATALOG, 25);
        b.note_sealed_block(5, 18);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.entries, 3);
        assert_eq!(m.client_bytes, 100);
        assert_eq!(m.header_bytes, 12);
        assert_eq!(m.blocks_sealed, 2);
        assert_eq!(
            m.report().device_bytes,
            a.report().device_bytes + b.report().device_bytes
        );
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SpaceStats::default().report();
        assert_eq!(r.entries, 0);
        assert_eq!(r.header_overhead_pct(), 0.0);
    }
}
