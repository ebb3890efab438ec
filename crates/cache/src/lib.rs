#![warn(missing_docs)]
//! The shared block cache (buffer pool).
//!
//! Clio "is able to use much of the existing mechanism of the file server,
//! such as the buffer pool" (§2). Here it serves the log service — its
//! volumes and readers; the conventional-FS baseline (`clio-fs`) does its
//! own block I/O. Because log blocks are immutable once
//! sealed (the medium is write-once), the cache is a pure read cache with
//! write-through on append: there are no dirty pages and no write-back
//! machinery. Hit/miss statistics feed the Table 1 and §4 cache analyses.
//!
//! Immutability also makes the cache embarrassingly shardable: a block
//! image never changes after insertion, so the only mutable state is
//! recency, which is private to each shard. [`BlockCache::with_shards`]
//! splits the key space over N power-of-two LRU shards with per-shard
//! locks so concurrent readers touching different blocks never contend.
//! [`BlockCache::new`] keeps the single-shard (exact global LRU)
//! behaviour for cache-behaviour experiments that must stay reproducible.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use clio_obs::{Counter, Gauge, MetricsRegistry, TraceRing};
use clio_testkit::sync::{Condvar, Mutex};

use clio_types::{BlockNo, Result};

/// Identifies a cached device (assigned by the volume layer).
pub type DeviceId = u32;

/// A cache key: one block of one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Which device.
    pub device: DeviceId,
    /// Which block.
    pub block: BlockNo,
}

impl CacheKey {
    /// Convenience constructor.
    #[must_use]
    pub fn new(device: DeviceId, block: BlockNo) -> CacheKey {
        CacheKey { device, block }
    }

    /// A well-mixed 64-bit hash used to pick a shard (SplitMix64 finisher
    /// over the device/block pair, so consecutive blocks spread evenly).
    fn shard_hash(self) -> u64 {
        let mut x =
            (u64::from(self.device) << 48) ^ self.block.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// One shard's statistics handles (shared-cache totals are their sums).
/// The cache creates them — its constructors take no registry — and
/// [`BlockCache::register_into`] has a registry adopt them.
#[derive(Debug, Default)]
struct Counters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
    evictions: Arc<Counter>,
    /// Blocks resident in the shard: moved with the shard's map, under its
    /// lock, so [`BlockCache::len`] never takes one.
    resident: Arc<Gauge>,
}

impl Counters {
    fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
            evictions: self.evictions.get(),
            duplicate_loads: 0,
        }
    }
}

/// A point-in-time copy of the cache counters: a view derived from the
/// per-shard handles, not a second set of counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to go to the device.
    pub misses: u64,
    /// Blocks inserted.
    pub inserts: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Concurrent `get_or_load` misses coalesced onto another thread's
    /// in-flight load instead of loading again (single-flight).
    pub duplicate_loads: u64,
}

impl CacheSnapshot {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} hit_ratio={:.1}% inserts={} evictions={}",
            self.hits,
            self.misses,
            100.0 * self.hit_ratio(),
            self.inserts,
            self.evictions
        )
    }
}

struct Entry {
    data: Arc<Vec<u8>>,
    tick: u64,
}

struct Lru {
    map: HashMap<CacheKey, Entry>,
    by_tick: std::collections::BTreeMap<u64, CacheKey>,
    next_tick: u64,
}

impl Lru {
    fn empty() -> Lru {
        Lru {
            map: HashMap::new(),
            by_tick: std::collections::BTreeMap::new(),
            next_tick: 0,
        }
    }

    fn touch(&mut self, key: CacheKey) {
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(e) = self.map.get_mut(&key) {
            self.by_tick.remove(&e.tick);
            e.tick = tick;
            self.by_tick.insert(tick, key);
        }
    }
}

/// One LRU shard: a slice of the capacity with its own lock and counters.
struct Shard {
    inner: Mutex<Lru>,
    capacity: usize,
    counters: Counters,
}

/// The state of one in-flight `get_or_load` for a key.
enum FlightState {
    /// The leader is still loading.
    Pending,
    /// The leader finished: `Some` with the block, `None` if the load
    /// failed (waiters retry, becoming leaders themselves).
    Done(Option<Arc<Vec<u8>>>),
}

/// A single-flight rendezvous: losers of the leader race park here.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// A fixed-capacity LRU cache of immutable block images, sharded for
/// concurrent readers.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use clio_cache::{BlockCache, CacheKey};
/// use clio_types::BlockNo;
///
/// let cache = BlockCache::new(2);
/// cache.put(CacheKey::new(0, BlockNo(1)), Arc::new(vec![1, 2, 3]));
/// assert!(cache.get(CacheKey::new(0, BlockNo(1))).is_some());
/// assert!(cache.get(CacheKey::new(0, BlockNo(9))).is_none());
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct BlockCache {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard count is always a power of two.
    mask: u64,
    capacity: usize,
    duplicate_loads: Arc<Counter>,
    inflight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
    /// When attached, single-flight loads record `cache_load` /
    /// `cache_wait` spans, nesting under the reading operation's span.
    trace: OnceLock<Arc<TraceRing>>,
}

impl BlockCache {
    /// Creates a single-shard cache holding at most `capacity_blocks`
    /// blocks — exact global LRU, the reproducible-experiment mode.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero — a cacheless configuration
    /// should bypass the cache, not construct a degenerate one.
    #[must_use]
    pub fn new(capacity_blocks: usize) -> BlockCache {
        BlockCache::with_shards(capacity_blocks, 1)
    }

    /// Creates a cache of `capacity_blocks` split over `shards` LRU
    /// shards. The shard count is rounded up to a power of two and
    /// clamped so every shard holds at least one block.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` or `shards` is zero.
    #[must_use]
    pub fn with_shards(capacity_blocks: usize, shards: usize) -> BlockCache {
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        assert!(shards > 0, "shard count must be positive");
        let mut n = shards.next_power_of_two();
        while n > 1 && capacity_blocks / n == 0 {
            n /= 2;
        }
        let base = capacity_blocks / n;
        let rem = capacity_blocks % n;
        let shards: Vec<Shard> = (0..n)
            .map(|i| Shard {
                inner: Mutex::with_class(Lru::empty(), "cache.shard"),
                capacity: base + usize::from(i < rem),
                counters: Counters::default(),
            })
            .collect();
        BlockCache {
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
            capacity: capacity_blocks,
            duplicate_loads: Arc::default(),
            inflight: Mutex::with_class(HashMap::new(), "cache.inflight"),
            trace: OnceLock::new(),
        }
    }

    /// Attaches a trace ring so single-flight loads record spans. First
    /// attach wins; later calls are ignored.
    pub fn attach_trace(&self, ring: Arc<TraceRing>) {
        let _ = self.trace.set(ring);
    }

    /// Opens a span when a trace ring is attached.
    fn load_span(&self, name: &'static str) -> Option<clio_obs::SpanGuard<'_>> {
        Some(self.trace.get()?.span(name))
    }

    fn shard(&self, key: CacheKey) -> &Shard {
        &self.shards[(key.shard_hash() & self.mask) as usize]
    }

    /// Number of blocks currently cached (lock-free).
    #[must_use]
    pub fn len(&self) -> usize {
        let resident: i64 = self.shards.iter().map(|s| s.counters.resident.get()).sum();
        usize::try_from(resident).unwrap_or(0)
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity in blocks.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of LRU shards (1 = exact global LRU).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Looks up a block, updating recency and hit/miss counters.
    #[must_use]
    pub fn get(&self, key: CacheKey) -> Option<Arc<Vec<u8>>> {
        let shard = self.shard(key);
        let mut g = shard.inner.lock();
        if let Some(e) = g.map.get(&key) {
            let data = e.data.clone();
            g.touch(key);
            shard.counters.hits.inc();
            Some(data)
        } else {
            shard.counters.misses.inc();
            None
        }
    }

    /// Inserts (or replaces) a block, evicting the shard's least recently
    /// used block if the shard is full.
    pub fn put(&self, key: CacheKey, data: Arc<Vec<u8>>) {
        let shard = self.shard(key);
        let mut g = shard.inner.lock();
        let tick = g.next_tick;
        g.next_tick += 1;
        if let Some(old) = g.map.insert(key, Entry { data, tick }) {
            g.by_tick.remove(&old.tick);
        } else {
            shard.counters.resident.add(1);
        }
        g.by_tick.insert(tick, key);
        shard.counters.inserts.inc();
        while g.map.len() > shard.capacity {
            let Some((&t, &victim)) = g.by_tick.iter().next() else {
                break;
            };
            g.by_tick.remove(&t);
            g.map.remove(&victim);
            shard.counters.resident.add(-1);
            shard.counters.evictions.inc();
        }
    }

    /// Looks up a block, loading and inserting it on a miss.
    ///
    /// Concurrent misses on the same key are coalesced (single-flight):
    /// one caller runs `load`, the rest wait and share its block. The
    /// avoided loads are counted in [`CacheSnapshot::duplicate_loads`].
    /// If the leader's load fails, each waiter retries — one of them
    /// becomes the new leader.
    pub fn get_or_load<F>(&self, key: CacheKey, load: F) -> Result<Arc<Vec<u8>>>
    where
        F: FnMut() -> Result<Vec<u8>>,
    {
        let mut load = load;
        loop {
            if let Some(hit) = self.get(key) {
                return Ok(hit);
            }
            let (flight, leader) = {
                let mut g = self.inflight.lock();
                match g.get(&key) {
                    Some(f) => (f.clone(), false),
                    None => {
                        let f = Arc::new(Flight {
                            state: Mutex::with_class(FlightState::Pending, "cache.flight"),
                            cv: Condvar::new(),
                        });
                        g.insert(key, f.clone());
                        (f, true)
                    }
                }
            };
            if leader {
                let mut span = self.load_span("cache_load");
                let loaded = load();
                if loaded.is_err() {
                    if let Some(s) = &mut span {
                        s.fail("load_error");
                    }
                }
                drop(span);
                // The loader's buffer becomes the cached block: no copy.
                let loaded = loaded.map(Arc::new);
                if let Ok(data) = &loaded {
                    self.put(key, data.clone());
                }
                self.inflight.lock().remove(&key);
                *flight.state.lock() = FlightState::Done(loaded.as_ref().ok().cloned());
                flight.cv.notify_all();
                return loaded;
            }
            // Loser: without single-flight this would have been a second
            // load of the same block. The span drops after `g` releases
            // the flight lock (reverse declaration order), so the ring
            // mutex is only ever taken with no other lock held here.
            self.duplicate_loads.inc();
            let _span = self.load_span("cache_wait");
            let g = flight
                .cv
                .wait_while(flight.state.lock(), |s| matches!(s, FlightState::Pending));
            match &*g {
                FlightState::Done(Some(data)) => return Ok(data.clone()),
                // Leader failed; retry (and possibly lead) ourselves.
                FlightState::Done(None) => continue,
                FlightState::Pending => unreachable!("wait_while guarantees Done"),
            }
        }
    }

    /// Drops one block (e.g. after invalidating it on the device).
    pub fn invalidate(&self, key: CacheKey) {
        let shard = self.shard(key);
        let mut g = shard.inner.lock();
        if let Some(e) = g.map.remove(&key) {
            g.by_tick.remove(&e.tick);
            shard.counters.resident.add(-1);
        }
    }

    /// Drops everything (a simulated server crash loses the cache).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut g = shard.inner.lock();
            g.map.clear();
            g.by_tick.clear();
            shard.counters.resident.set(0);
        }
    }

    /// Copies the statistics counters (summed over shards).
    #[must_use]
    pub fn stats(&self) -> CacheSnapshot {
        let mut s = CacheSnapshot {
            duplicate_loads: self.duplicate_loads.get(),
            ..CacheSnapshot::default()
        };
        for i in 0..self.shards.len() {
            let shard = self.shard_stats(i);
            s.hits += shard.hits;
            s.misses += shard.misses;
            s.inserts += shard.inserts;
            s.evictions += shard.evictions;
        }
        s
    }

    /// The statistics of one shard (for contention analysis).
    #[must_use]
    pub fn shard_stats(&self, index: usize) -> CacheSnapshot {
        self.shards[index].counters.snapshot()
    }

    /// Has `reg` adopt the cache's handles under the `clio_cache_*`
    /// namespace: each total is the sum of its per-shard stripes, and a
    /// cache of more than one shard also serves the stripes themselves
    /// (`clio_cache_shard<i>_*`).
    pub fn register_into(&self, reg: &MetricsRegistry) {
        for (i, shard) in self.shards.iter().enumerate() {
            let c = &shard.counters;
            reg.adopt("clio_cache_hits_total", c.hits.clone());
            reg.adopt("clio_cache_misses_total", c.misses.clone());
            reg.adopt("clio_cache_inserts_total", c.inserts.clone());
            reg.adopt("clio_cache_evictions_total", c.evictions.clone());
            reg.adopt("clio_cache_resident_blocks", c.resident.clone());
            if self.shards.len() > 1 {
                reg.adopt(&format!("clio_cache_shard{i}_hits_total"), c.hits.clone());
                reg.adopt(
                    &format!("clio_cache_shard{i}_misses_total"),
                    c.misses.clone(),
                );
                reg.adopt(
                    &format!("clio_cache_shard{i}_resident_blocks"),
                    c.resident.clone(),
                );
            }
        }
        reg.adopt(
            "clio_cache_duplicate_loads_total",
            self.duplicate_loads.clone(),
        );
        reg.gauge("clio_cache_capacity_blocks")
            .set(self.capacity as i64);
        reg.gauge("clio_cache_shards").set(self.shards.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u64) -> CacheKey {
        CacheKey::new(0, BlockNo(b))
    }

    fn data(b: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![b; 8])
    }

    #[test]
    fn put_get_round_trip() {
        let c = BlockCache::new(4);
        c.put(key(1), data(1));
        assert_eq!(c.get(key(1)).unwrap()[0], 1);
        assert!(c.get(key(2)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let c = BlockCache::new(3);
        c.put(key(1), data(1));
        c.put(key(2), data(2));
        c.put(key(3), data(3));
        // Touch 1 so 2 becomes the LRU victim.
        let _ = c.get(key(1));
        c.put(key(4), data(4));
        assert!(c.get(key(2)).is_none(), "2 should have been evicted");
        assert!(c.get(key(1)).is_some());
        assert!(c.get(key(3)).is_some());
        assert!(c.get(key(4)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn replacing_a_key_does_not_grow() {
        let c = BlockCache::new(2);
        c.put(key(1), data(1));
        c.put(key(1), data(9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(key(1)).unwrap()[0], 9);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn get_or_load_loads_once() {
        let c = BlockCache::new(4);
        let mut loads = 0;
        for _ in 0..3 {
            let v = c
                .get_or_load(key(7), || {
                    loads += 1;
                    Ok(vec![7u8; 4])
                })
                .unwrap();
            assert_eq!(v[0], 7);
        }
        assert_eq!(loads, 1);
        let s = c.stats();
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn load_errors_propagate_and_cache_nothing() {
        let c = BlockCache::new(4);
        let r = c.get_or_load(key(9), || Err(clio_types::ClioError::VolumeFull));
        assert!(r.is_err());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn invalidate_and_clear() {
        let c = BlockCache::new(4);
        c.put(key(1), data(1));
        c.put(key(2), data(2));
        c.invalidate(key(1));
        assert!(c.get(key(1)).is_none());
        assert!(c.get(key(2)).is_some());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn devices_are_distinct() {
        let c = BlockCache::new(4);
        c.put(CacheKey::new(0, BlockNo(1)), data(1));
        c.put(CacheKey::new(1, BlockNo(1)), data(2));
        assert_eq!(c.get(CacheKey::new(0, BlockNo(1))).unwrap()[0], 1);
        assert_eq!(c.get(CacheKey::new(1, BlockNo(1))).unwrap()[0], 2);
    }

    #[test]
    fn hit_ratio() {
        let c = BlockCache::new(4);
        c.put(key(1), data(1));
        let _ = c.get(key(1));
        let _ = c.get(key(1));
        let _ = c.get(key(2));
        let s = c.stats();
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(CacheSnapshot::default().hit_ratio(), 0.0);
    }

    #[test]
    fn registers_into_a_registry_and_displays() {
        let c = Arc::new(BlockCache::new(4));
        let reg = clio_obs::MetricsRegistry::new();
        c.register_into(&reg);
        c.put(key(1), data(1));
        let _ = c.get(key(1));
        let _ = c.get(key(2));
        let text = clio_obs::expo::render_prometheus(&reg);
        assert!(text.contains("clio_cache_hits_total 1"));
        assert!(text.contains("clio_cache_misses_total 1"));
        assert!(text.contains("clio_cache_resident_blocks 1"));
        assert!(text.contains("clio_cache_capacity_blocks 4"));
        assert!(text.contains("clio_cache_shards 1"));
        let line = format!("{}", c.stats());
        assert!(line.contains("hits=1"));
        assert!(line.contains("hit_ratio=50.0%"));
    }

    #[test]
    fn heavy_churn_respects_capacity() {
        let c = BlockCache::new(16);
        for i in 0..10_000u64 {
            c.put(key(i), data((i % 251) as u8));
        }
        assert_eq!(c.len(), 16);
        // The survivors are the 16 most recent.
        for i in 10_000 - 16..10_000 {
            assert!(c.get(key(i)).is_some(), "block {i} missing");
        }
    }

    // ---------------- sharded mode ----------------

    #[test]
    fn shard_count_rounds_and_clamps() {
        assert_eq!(BlockCache::with_shards(64, 8).shard_count(), 8);
        assert_eq!(BlockCache::with_shards(64, 5).shard_count(), 8);
        // Too few blocks for 8 shards: clamp so every shard holds >= 1.
        assert_eq!(BlockCache::with_shards(4, 8).shard_count(), 4);
        assert_eq!(BlockCache::with_shards(1, 8).shard_count(), 1);
        assert_eq!(BlockCache::new(16).shard_count(), 1);
    }

    #[test]
    fn sharded_capacity_is_partitioned_exactly() {
        let c = BlockCache::with_shards(13, 4);
        let total: usize = c.shards.iter().map(|s| s.capacity).sum();
        assert_eq!(total, 13);
        assert!(c.shards.iter().all(|s| s.capacity >= 3));
    }

    #[test]
    fn sharded_round_trip_and_len() {
        // Per-shard capacity (384/8 = 48) covers every key even if the
        // hash lands them all in one shard, so nothing can be evicted.
        let c = BlockCache::with_shards(384, 8);
        for i in 0..48u64 {
            c.put(key(i), data(i as u8));
        }
        assert_eq!(c.len(), 48);
        for i in 0..48u64 {
            assert_eq!(c.get(key(i)).unwrap()[0], i as u8, "block {i}");
        }
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (48, 0, 48));
        c.clear();
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn sharded_churn_never_exceeds_capacity() {
        let c = BlockCache::with_shards(32, 4);
        for i in 0..10_000u64 {
            c.put(key(i), data((i % 251) as u8));
        }
        assert!(c.len() <= 32, "len {} over capacity", c.len());
        assert!(c.len() >= 4, "every shard should retain something");
        // Per-shard stats sum to the totals.
        let total: u64 = (0..c.shard_count()).map(|i| c.shard_stats(i).inserts).sum();
        assert_eq!(total, c.stats().inserts);
    }

    #[test]
    fn sharded_parallel_readers_agree() {
        // 2048/8 = 256 per shard: all 256 keys fit in any one shard, so
        // the uneven hash spread cannot evict anything.
        let c = Arc::new(BlockCache::with_shards(2048, 8));
        for i in 0..256u64 {
            c.put(key(i), data((i % 251) as u8));
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..1_000u64 {
                    let i = (round * 7 + t * 13) % 256;
                    assert_eq!(c.get(key(i)).unwrap()[0], (i % 251) as u8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.stats().hits, 4_000);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn single_flight_coalesces_concurrent_misses() {
        use std::sync::mpsc;
        let c = Arc::new(BlockCache::with_shards(16, 4));
        let (loading_tx, loading_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let c1 = c.clone();
        let leader = std::thread::spawn(move || {
            c1.get_or_load(key(3), || {
                loading_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                Ok(vec![42u8; 4])
            })
            .unwrap()
        });
        // Wait until the leader is inside its load, then race it.
        loading_rx.recv().unwrap();
        let c2 = c.clone();
        let loser = std::thread::spawn(move || {
            c2.get_or_load(key(3), || panic!("loser must never load"))
                .unwrap()
        });
        // Give the loser time to park on the flight, then release.
        while c.stats().duplicate_loads == 0 {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();
        assert_eq!(leader.join().unwrap()[0], 42);
        assert_eq!(loser.join().unwrap()[0], 42);
        let s = c.stats();
        assert_eq!(s.duplicate_loads, 1, "exactly one avoided load");
        assert_eq!(s.inserts, 1, "the block was loaded and inserted once");
    }

    /// A miss moves the loader's buffer into the cache: the block the
    /// caller gets, and the one later hits get, is that allocation. (The
    /// failed-load side of the same code is the retry test below.)
    #[test]
    fn a_miss_caches_the_loaders_buffer_without_copying() {
        let c = BlockCache::with_shards(16, 4);
        let mut loaded_at = std::ptr::null();
        let got = c
            .get_or_load(key(4), || {
                let block = vec![9u8; 1024];
                loaded_at = block.as_ptr();
                Ok(block)
            })
            .unwrap();
        assert_eq!(got.as_ptr(), loaded_at, "the miss copied the block");
        assert_eq!(c.get(key(4)).unwrap().as_ptr(), loaded_at);
    }

    #[test]
    fn single_flight_failed_leader_lets_waiter_retry() {
        use std::sync::mpsc;
        let c = Arc::new(BlockCache::with_shards(16, 4));
        let (loading_tx, loading_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let c1 = c.clone();
        let leader = std::thread::spawn(move || {
            c1.get_or_load(key(5), || {
                loading_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                Err(clio_types::ClioError::VolumeFull)
            })
        });
        loading_rx.recv().unwrap();
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || c2.get_or_load(key(5), || Ok(vec![7u8; 4])));
        while c.stats().duplicate_loads == 0 {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();
        assert!(leader.join().unwrap().is_err());
        // The waiter retried after the leader's failure and loaded itself.
        assert_eq!(waiter.join().unwrap().unwrap()[0], 7);
        assert_eq!(c.get(key(5)).unwrap()[0], 7);
    }

    #[test]
    fn attached_trace_records_load_spans_under_parent() {
        let c = BlockCache::new(4);
        let ring = Arc::new(TraceRing::new(8));
        c.attach_trace(ring.clone());
        {
            let _read = ring.span("read");
            let _ = c.get_or_load(key(2), || Ok(vec![2u8; 4])).unwrap();
        }
        let spans = ring.snapshot();
        let load = spans
            .iter()
            .find(|s| s.name == "cache_load")
            .expect("load span");
        let read = spans.iter().find(|s| s.name == "read").expect("read span");
        assert_eq!(load.parent, Some(read.id), "load nests under the read");
        // A failed load keeps its outcome.
        let _ = c.get_or_load(key(9), || Err(clio_types::ClioError::VolumeFull));
        let spans = ring.snapshot();
        let failed = spans.iter().rfind(|s| s.name == "cache_load").unwrap();
        assert_eq!(failed.outcome, "load_error");
    }

    #[test]
    fn sharded_registry_exposes_shard_collectors() {
        let c = Arc::new(BlockCache::with_shards(64, 4));
        let reg = clio_obs::MetricsRegistry::new();
        c.register_into(&reg);
        for i in 0..32u64 {
            c.put(key(i), data(1));
            let _ = c.get(key(i));
        }
        let text = clio_obs::expo::render_prometheus(&reg);
        assert!(text.contains("clio_cache_shards 4"));
        assert!(text.contains("clio_cache_shard0_hits_total"));
        assert!(text.contains("clio_cache_shard3_resident_blocks"));
        assert!(text.contains("clio_cache_duplicate_loads_total 0"));
        assert!(text.contains("clio_cache_hits_total 32"));
        // The totals are the stripes' sums, and residency tracks the maps.
        assert!(text.contains("clio_cache_resident_blocks 32"));
        let resident: usize = c.shards.iter().map(|s| s.inner.lock().map.len()).sum();
        assert_eq!(c.len(), resident);
        c.invalidate(key(0));
        c.put(key(1), data(2));
        assert_eq!(c.len(), 31);
        c.clear();
        assert!(clio_obs::expo::render_prometheus(&reg).contains("clio_cache_resident_blocks 0"));
    }
}
