//! The paper's measured per-operation costs (§3.2, §3.3.2, §4).

use clio_testkit::sync::atomic::{AtomicU64, Ordering};
use clio_types::{Clock, Timestamp};

/// Per-operation latencies in microseconds, defaulted to the paper's
/// measurements on a Sun-3 running the V-System.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Basic synchronous client–server IPC (write) operation on one
    /// workstation: "0.5 ms–1 ms" (§3.2). We use the midpoint.
    pub ipc_local_us: u64,
    /// The same between different workstations: "2.5 ms–3 ms" (§3.2 fn. 9).
    pub ipc_remote_us: u64,
    /// Generating a header timestamp: "roughly 400 µs" (§3.2).
    pub timestamp_gen_us: u64,
    /// Maintaining and periodically logging entrymap information, per
    /// written log entry: "about 70 µs" (§3.2).
    pub entrymap_note_us: u64,
    /// Copying a small entry into the block cache and bookkeeping — the
    /// §3.2 "null write" residue once IPC and timestamping are removed
    /// (2.0 ms − ~0.75 ms IPC − 0.4 ms timestamp ≈ 0.85 ms).
    pub server_append_us: u64,
    /// Per-byte cost of copying client data at the server (fits the
    /// 50-byte entry costing 0.9 ms more than the null entry, §3.2).
    pub copy_per_byte_us: u64,
    /// Accessing and interpreting one cached disk block: "around 0.6 ms"
    /// (§3.3.2).
    pub cached_block_us: u64,
    /// A typical average seek on an optical disk drive: "~150 ms"
    /// (§3.3.2).
    pub optical_seek_us: u64,
    /// Reading one block off the optical medium once positioned.
    pub optical_transfer_us: u64,
    /// §4: retrieving 1 KiB from the log device on a cache miss: 100 ms.
    pub hbfs_log_miss_us: u64,
    /// §4: retrieving 1 KiB from a magnetic-disk cache: 30 ms.
    pub hbfs_disk_cache_us: u64,
    /// §4: retrieving 1 KiB from a RAM cache: 1 ms.
    pub hbfs_ram_cache_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ipc_local_us: 750,
            ipc_remote_us: 2_750,
            timestamp_gen_us: 400,
            entrymap_note_us: 70,
            server_append_us: 850,
            copy_per_byte_us: 18,
            cached_block_us: 600,
            optical_seek_us: 150_000,
            optical_transfer_us: 5_000,
            hbfs_log_miss_us: 100_000,
            hbfs_disk_cache_us: 30_000,
            hbfs_ram_cache_us: 1_000,
        }
    }
}

impl CostModel {
    /// Modelled time of a synchronous log write of `payload` bytes with a
    /// timestamped header, as measured in §3.2 (IPC + timestamp + server
    /// work + copy + entrymap bookkeeping). The paper's numbers: ~2.0 ms
    /// for a null entry, ~2.9 ms for 50 bytes.
    #[must_use]
    pub fn sync_write_us(&self, payload: usize) -> u64 {
        self.ipc_local_us
            + self.timestamp_gen_us
            + self.server_append_us
            + self.entrymap_note_us
            + self.copy_per_byte_us * payload as u64
    }

    /// Modelled time of a log read that touched `cached_blocks` blocks in
    /// the cache and missed `missed_blocks` times to the optical device
    /// (§3.3.2: "the cost of a log read operation … is determined
    /// primarily by the number of cache misses").
    #[must_use]
    pub fn read_us(&self, cached_blocks: u64, missed_blocks: u64) -> u64 {
        self.ipc_local_us
            + cached_blocks * self.cached_block_us
            + missed_blocks * (self.optical_seek_us + self.optical_transfer_us)
    }

    /// §4's history-based read model: expected per-read time (µs/KiB)
    /// given a cache hit ratio, for a RAM cache backed by the log device.
    #[must_use]
    pub fn hbfs_ram_read_us(&self, hit_ratio: f64) -> f64 {
        hit_ratio * self.hbfs_ram_cache_us as f64 + (1.0 - hit_ratio) * self.hbfs_log_miss_us as f64
    }

    /// §4's model for a magnetic-disk cache backed by the log device.
    #[must_use]
    pub fn hbfs_disk_read_us(&self, hit_ratio: f64) -> f64 {
        hit_ratio * self.hbfs_disk_cache_us as f64
            + (1.0 - hit_ratio) * self.hbfs_log_miss_us as f64
    }

    /// §4's crossover: the RAM-cache hit ratio (as a fraction of the disk
    /// cache's hit ratio `h_disk`) above which the RAM cache reads faster.
    /// The paper puts it at 70% for its constants.
    #[must_use]
    pub fn hbfs_crossover_fraction(&self, h_disk: f64) -> f64 {
        // Solve h_ram·ram + (1−h_ram)·miss = h_disk·disk + (1−h_disk)·miss.
        let miss = self.hbfs_log_miss_us as f64;
        let h_ram = h_disk * (miss - self.hbfs_disk_cache_us as f64)
            / (miss - self.hbfs_ram_cache_us as f64);
        h_ram / h_disk
    }
}

/// A virtual clock that advances by *charged* model time: benchmarks charge
/// per-operation costs and read the total as the modelled latency. Also
/// usable as the service's [`Clock`], making entry timestamps advance with
/// modelled time.
#[derive(Debug, Default)]
pub struct CostClock {
    now_us: AtomicU64,
}

impl CostClock {
    /// A clock starting at `start`.
    #[must_use]
    pub fn starting_at(start: Timestamp) -> CostClock {
        CostClock {
            now_us: AtomicU64::new(start.0),
        }
    }

    /// Charges `us` microseconds of modelled time.
    pub fn charge(&self, us: u64) {
        self.now_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total modelled time elapsed.
    #[must_use]
    pub fn elapsed_since(&self, t0: Timestamp) -> u64 {
        self.now_us.load(Ordering::Relaxed).saturating_sub(t0.0)
    }
}

impl Clock for CostClock {
    fn now(&self) -> Timestamp {
        // Reading the clock costs nothing; ticking by 1 keeps timestamps
        // unique, which the unique-id machinery relies on.
        Timestamp(self.now_us.fetch_add(1, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_write_matches_paper_envelope() {
        let m = CostModel::default();
        // §3.2: null entry ≈ 2.0 ms; 50-byte entry ≈ 2.9 ms.
        let null = m.sync_write_us(0);
        let fifty = m.sync_write_us(50);
        assert!((1_800..=2_300).contains(&null), "null = {null} µs");
        assert!((2_600..=3_200).contains(&fifty), "50B = {fifty} µs");
        assert!(fifty > null);
    }

    #[test]
    fn read_cost_dominated_by_misses() {
        let m = CostModel::default();
        let warm = m.read_us(11, 0);
        let cold = m.read_us(0, 11);
        // §3.3.2: cached reads are ms-scale, cold reads several hundred ms.
        assert!(warm < 10_000, "warm = {warm}");
        assert!(cold > 1_000_000, "cold = {cold}");
    }

    #[test]
    fn hbfs_crossover_near_seventy_percent() {
        // §4: "as long as the cache hit ratio for the RAM cache is at
        // least 70% of the cache hit ratio of the disk cache, then the RAM
        // cache has the better read access performance."
        let m = CostModel::default();
        let f = m.hbfs_crossover_fraction(0.9);
        assert!((0.65..=0.75).contains(&f), "crossover fraction = {f}");
        // And the read-time model is consistent on both sides of it.
        let h_disk = 0.9;
        let h_ram_hi = h_disk * (f + 0.05);
        let h_ram_lo = h_disk * (f - 0.05);
        assert!(m.hbfs_ram_read_us(h_ram_hi) < m.hbfs_disk_read_us(h_disk));
        assert!(m.hbfs_ram_read_us(h_ram_lo) > m.hbfs_disk_read_us(h_disk));
    }

    #[test]
    fn cost_clock_charges() {
        let c = CostClock::starting_at(Timestamp(100));
        let t0 = Timestamp(100);
        c.charge(500);
        let t = c.now();
        assert!(t >= Timestamp(600));
        assert!(c.elapsed_since(t0) >= 500);
    }
}
