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
//! The cache is generic over what it holds for a block. The log service
//! holds *verified* blocks (`clio_format::ParsedBlock`): a block is
//! CRC-checked once, inside the single-flight loader that fills it from
//! the medium (a load that fails its check caches nothing), or was made by
//! the block builder and written through. Because the medium is
//! write-once, the verdict never goes stale, so a hit is served without
//! checking anything again. The default block type, raw image bytes,
//! serves caches that only model hit ratios.
//!
//! Immutability also makes the cache embarrassingly shardable: a block
//! image never changes after insertion, so the only mutable state is
//! recency, which is private to each shard. [`BlockCache::with_shards`]
//! splits the key space over N power-of-two LRU shards with per-shard
//! locks so concurrent readers touching different blocks never contend.
//! Single flight lives in the shard too: a miss marks its key loading
//! under the shard lock, loads with no lock held, and fills under it
//! again, so a miss shares no lock or word with misses in other shards.
//! [`BlockCache::new`] keeps the single-shard (exact global LRU)
//! behaviour for cache-behaviour experiments that must stay reproducible.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use clio_obs::{Collector, Counter, Gauge, MetricSource, MetricsRegistry, TraceRing};
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
/// [`BlockCache::register_into`] registers the cache as their reader.
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

struct Entry<B> {
    data: B,
    tick: u64,
}

/// One shard's state, all under its lock.
struct Lru<B> {
    map: HashMap<CacheKey, Entry<B>>,
    by_tick: std::collections::BTreeMap<u64, CacheKey>,
    next_tick: u64,
    /// Keys a miss is loading right now, with no lock held (single
    /// flight). As many as there are threads missing in this shard, so a
    /// scan beats hashing.
    loading: Vec<CacheKey>,
    /// Misses parked on [`Shard::filled`] until a load of theirs ends.
    waiters: usize,
}

impl<B> Lru<B> {
    fn empty() -> Lru<B> {
        Lru {
            map: HashMap::new(),
            by_tick: std::collections::BTreeMap::new(),
            next_tick: 0,
            loading: Vec::new(),
            waiters: 0,
        }
    }
}

/// One LRU shard: a slice of the capacity with its own lock and counters.
struct Shard<B> {
    inner: Mutex<Lru<B>>,
    /// Notified when a load ends while a miss waits on it.
    filled: Condvar,
    capacity: usize,
    counters: Counters,
}

impl<B: Clone> Shard<B> {
    /// Looks `key` up under the shard lock, updating recency and the
    /// hit/miss counters.
    fn lookup(&self, lru: &mut Lru<B>, key: CacheKey) -> Option<B> {
        let Some(e) = lru.map.get_mut(&key) else {
            self.counters.misses.inc();
            return None;
        };
        lru.by_tick.remove(&e.tick);
        e.tick = lru.next_tick;
        lru.next_tick += 1;
        lru.by_tick.insert(e.tick, key);
        self.counters.hits.inc();
        Some(e.data.clone())
    }

    /// Inserts (or replaces) `key` as the most recent block under the
    /// shard lock, evicting least recently used blocks past capacity.
    fn insert(&self, lru: &mut Lru<B>, key: CacheKey, data: B) {
        let tick = lru.next_tick;
        lru.next_tick += 1;
        if let Some(old) = lru.map.insert(key, Entry { data, tick }) {
            lru.by_tick.remove(&old.tick);
        } else {
            self.counters.resident.add(1);
        }
        lru.by_tick.insert(tick, key);
        self.counters.inserts.inc();
        while lru.map.len() > self.capacity {
            let Some((&t, &victim)) = lru.by_tick.iter().next() else {
                break;
            };
            lru.by_tick.remove(&t);
            lru.map.remove(&victim);
            self.counters.resident.add(-1);
            self.counters.evictions.inc();
        }
    }
}

/// A fixed-capacity LRU cache of immutable blocks, sharded for concurrent
/// readers. `B` is what is held per block: raw image bytes by default, a
/// verified `clio_format::ParsedBlock` in the log service.
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
pub struct BlockCache<B = Arc<Vec<u8>>> {
    shards: Box<[Shard<B>]>,
    /// `shards.len() - 1`; shard count is always a power of two.
    mask: u64,
    capacity: usize,
    duplicate_loads: Arc<Counter>,
    /// When attached, single-flight loads record `cache_load` /
    /// `cache_wait` spans, nesting under the reading operation's span.
    trace: OnceLock<Arc<TraceRing>>,
}

impl<B: Clone> BlockCache<B> {
    /// Creates a single-shard cache holding at most `capacity_blocks`
    /// blocks — exact global LRU, the reproducible-experiment mode.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero — a cacheless configuration
    /// should bypass the cache, not construct a degenerate one.
    #[must_use]
    pub fn new(capacity_blocks: usize) -> BlockCache<B> {
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
    pub fn with_shards(capacity_blocks: usize, shards: usize) -> BlockCache<B> {
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        assert!(shards > 0, "shard count must be positive");
        let mut n = shards.next_power_of_two();
        while n > 1 && capacity_blocks / n == 0 {
            n /= 2;
        }
        let base = capacity_blocks / n;
        let rem = capacity_blocks % n;
        let shards: Vec<Shard<B>> = (0..n)
            .map(|i| Shard {
                inner: Mutex::with_class(Lru::empty(), "cache.shard"),
                filled: Condvar::new(),
                capacity: base + usize::from(i < rem),
                counters: Counters::default(),
            })
            .collect();
        BlockCache {
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
            capacity: capacity_blocks,
            duplicate_loads: Arc::default(),
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

    fn shard(&self, key: CacheKey) -> &Shard<B> {
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
    pub fn get(&self, key: CacheKey) -> Option<B> {
        let shard = self.shard(key);
        let mut g = shard.inner.lock();
        shard.lookup(&mut g, key)
    }

    /// Inserts (or replaces) a block, evicting the shard's least recently
    /// used block if the shard is full.
    pub fn put(&self, key: CacheKey, data: B) {
        let shard = self.shard(key);
        shard.insert(&mut shard.inner.lock(), key, data);
    }

    /// Looks up a block, loading and inserting it on a miss; a load that
    /// fails inserts nothing and returns its error.
    ///
    /// Concurrent misses on the same key are coalesced (single flight):
    /// the miss that finds the key absent marks it loading in the same
    /// shard-lock hold, runs `load` with no lock held, and fills the entry
    /// and clears the mark in one more hold. A miss that finds the mark
    /// waits and shares the filled block; the avoided loads are counted
    /// in [`CacheSnapshot::duplicate_loads`]. If the load fails (or its
    /// block is evicted before a waiter wakes), each waiter retries — one
    /// of them becomes the next loader.
    pub fn get_or_load<F>(&self, key: CacheKey, mut load: F) -> Result<B>
    where
        F: FnMut() -> Result<B>,
    {
        let shard = self.shard(key);
        loop {
            let mut g = shard.inner.lock();
            if let Some(hit) = shard.lookup(&mut g, key) {
                return Ok(hit);
            }
            if !g.loading.contains(&key) {
                g.loading.push(key);
                drop(g);
                let mut span = self.load_span("cache_load");
                let loaded = load();
                if let (Some(s), Err(_)) = (&mut span, &loaded) {
                    s.fail("load_error");
                }
                drop(span);
                let mut g = shard.inner.lock();
                // The loader's block becomes the cached block: no copy.
                if let Ok(data) = &loaded {
                    shard.insert(&mut g, key, data.clone());
                }
                g.loading.retain(|k| *k != key);
                let waiting = g.waiters > 0;
                drop(g);
                if waiting {
                    shard.filled.notify_all();
                }
                return loaded;
            }
            // Another miss is loading the block. Count ourselves as its
            // waiter in the hold that saw the mark, so the fill notifies;
            // the span drops after `g` (reverse declaration order), so it
            // opens and closes with no lock held.
            g.waiters += 1;
            drop(g);
            self.duplicate_loads.inc();
            let _span = self.load_span("cache_wait");
            let mut g = shard
                .filled
                .wait_while(shard.inner.lock(), |l| l.loading.contains(&key));
            g.waiters -= 1;
            if let Some(e) = g.map.get(&key) {
                return Ok(e.data.clone());
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
        for c in self.shards.iter().map(|shard| &shard.counters) {
            s.hits += c.hits.get();
            s.misses += c.misses.get();
            s.inserts += c.inserts.get();
            s.evictions += c.evictions.get();
        }
        s
    }
}

impl<B: Send + Sync + 'static> BlockCache<B> {
    /// Registers this cache with `reg` as the source of the `clio_cache_*`
    /// series: each total is the sum of its per-shard stripes, and a cache
    /// of more than one shard also serves the stripes themselves
    /// (`clio_cache_shard<i>_*`).
    pub fn register_into(self: &Arc<Self>, reg: &MetricsRegistry) {
        reg.register(self.clone());
    }
}

impl<B: Send + Sync> MetricSource for BlockCache<B> {
    fn collect(&self, out: &mut Collector) {
        for (i, c) in self.shards.iter().map(|s| &s.counters).enumerate() {
            out.counter("clio_cache_hits_total", &[], c.hits.get());
            out.counter("clio_cache_misses_total", &[], c.misses.get());
            out.counter("clio_cache_inserts_total", &[], c.inserts.get());
            out.counter("clio_cache_evictions_total", &[], c.evictions.get());
            out.gauge("clio_cache_resident_blocks", &[], c.resident.get());
            if self.shards.len() > 1 {
                let name = |what: &str| format!("clio_cache_shard{i}_{what}");
                out.counter(&name("hits_total"), &[], c.hits.get());
                out.counter(&name("misses_total"), &[], c.misses.get());
                out.gauge(&name("resident_blocks"), &[], c.resident.get());
            }
        }
        out.counter(
            "clio_cache_duplicate_loads_total",
            &[],
            self.duplicate_loads.get(),
        );
        out.gauge("clio_cache_capacity_blocks", &[], self.capacity as i64);
        out.gauge("clio_cache_shards", &[], self.shards.len() as i64);
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
                    Ok(Arc::new(vec![7u8; 4]))
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
        let c: BlockCache = BlockCache::new(4);
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
        let shards =
            |capacity, shards| BlockCache::<u8>::with_shards(capacity, shards).shard_count();
        assert_eq!(shards(64, 8), 8);
        assert_eq!(shards(64, 5), 8);
        // Too few blocks for 8 shards: clamp so every shard holds >= 1.
        assert_eq!(shards(4, 8), 4);
        assert_eq!(shards(1, 8), 1);
        assert_eq!(BlockCache::<u8>::new(16).shard_count(), 1);
    }

    #[test]
    fn sharded_capacity_is_partitioned_exactly() {
        let c: BlockCache = BlockCache::with_shards(13, 4);
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
        let total: u64 = c.shards.iter().map(|s| s.counters.inserts.get()).sum();
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
        let c: Arc<BlockCache> = Arc::new(BlockCache::with_shards(16, 4));
        let (loading_tx, loading_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let c1 = c.clone();
        let leader = std::thread::spawn(move || {
            c1.get_or_load(key(3), || {
                loading_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                Ok(Arc::new(vec![42u8; 4]))
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

    /// A load runs with no lock held: while one is blocked inside its
    /// loader, a miss on another key of the same (only) shard loads,
    /// fills and returns, and a hit on a third key is served.
    #[test]
    fn a_blocked_load_does_not_hold_its_shard() {
        use std::sync::mpsc;
        let c: Arc<BlockCache> = Arc::new(BlockCache::new(4));
        c.put(key(9), data(9));
        let (loading_tx, loading_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let c1 = c.clone();
        let blocked = std::thread::spawn(move || {
            c1.get_or_load(key(1), || {
                loading_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                Ok(data(1))
            })
            .unwrap()
        });
        loading_rx.recv().unwrap();
        assert_eq!(c.get_or_load(key(2), || Ok(data(2))).unwrap()[0], 2);
        assert_eq!(c.get(key(9)).unwrap()[0], 9);
        release_tx.send(()).unwrap();
        assert_eq!(blocked.join().unwrap()[0], 1);
        let s = c.stats();
        assert_eq!((s.inserts, s.duplicate_loads), (3, 0));
    }

    /// A miss moves the loader's block into the cache: the block the
    /// caller gets, and the one later hits get, is that allocation. (The
    /// failed-load side of the same code is the retry test below.)
    #[test]
    fn a_miss_caches_the_loaders_buffer_without_copying() {
        let c: BlockCache = BlockCache::with_shards(16, 4);
        let mut loaded_at = std::ptr::null();
        let got = c
            .get_or_load(key(4), || {
                let block = vec![9u8; 1024];
                loaded_at = block.as_ptr();
                Ok(Arc::new(block))
            })
            .unwrap();
        assert_eq!(got.as_ptr(), loaded_at, "the miss copied the block");
        assert_eq!(c.get(key(4)).unwrap().as_ptr(), loaded_at);
    }

    #[test]
    fn single_flight_failed_leader_lets_waiter_retry() {
        use std::sync::mpsc;
        let c: Arc<BlockCache> = Arc::new(BlockCache::with_shards(16, 4));
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
        let waiter =
            std::thread::spawn(move || c2.get_or_load(key(5), || Ok(Arc::new(vec![7u8; 4]))));
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
        let c: BlockCache = BlockCache::new(4);
        let ring = Arc::new(TraceRing::new(8));
        c.attach_trace(ring.clone());
        {
            let _read = ring.span("read");
            let _ = c
                .get_or_load(key(2), || Ok(Arc::new(vec![2u8; 4])))
                .unwrap();
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
