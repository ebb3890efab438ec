//! Service configuration.

use clio_types::{
    ClioError, Result, DEFAULT_BLOCK_SIZE, DEFAULT_FANOUT, MAX_BLOCK_SIZE, MAX_FANOUT,
    MIN_BLOCK_SIZE,
};

/// Largest supported shard count: shard indexes share the 32-bit volume
/// coordinate of an `EntryAddr` with the per-shard volume index (8 bits of
/// shard, 24 bits of volume).
pub const MAX_SHARDS: usize = 256;

/// Tunables for a [`crate::LogService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Log device block size in bytes (the paper measured with 1 KiB).
    pub block_size: usize,
    /// Entrymap tree degree `N` (the paper recommends 16–32, §3.4).
    pub fanout: u16,
    /// Shared block cache capacity, in blocks.
    pub cache_blocks: usize,
    /// Number of LRU shards the block cache is split over (rounded up to
    /// a power of two). More shards mean less lock contention between
    /// concurrent readers; `1` restores the exact global-LRU behaviour
    /// the cache-behaviour experiments (Table 1, §4) were measured with.
    pub cache_shards: usize,
    /// Read back every block as it is appended, invalidating and
    /// re-writing it at the next block on mismatch (§2.3.2). Each seal
    /// then writes its block at once (one device write and one device
    /// read per block, no batching across seals); required for the
    /// fault-injection tests.
    pub verify_appends: bool,
    /// Capacity of the per-service op trace ring (0 disables tracing).
    pub trace_events: usize,
    /// Inert: group commit is the only append pipeline and nothing reads
    /// this. The field survives solely because the `perf/` benchmark names
    /// it in a struct literal; it goes with the next benchmark change.
    pub group_commit: bool,
    /// Independent append domains the service is partitioned into (power
    /// of two, hash-picked by top-level log file id like the block cache's
    /// shards). Each shard owns its own state lock, commit gate, read
    /// snapshot and volume sequence, so forced appends to different shards
    /// never contend; `1` restores the single-domain behaviour the paper
    /// experiments measure. The catalog log lives on shard 0.
    pub shards: usize,
    /// Bind address for the std-only HTTP observability endpoint
    /// (`/metrics`, `/metrics.json`, `/trace`, `/health`), e.g.
    /// `"127.0.0.1:0"` for an ephemeral port. `None` (the default) runs
    /// no endpoint. Only [`crate::LogServer`] honours this; a bare
    /// [`crate::LogService`] never opens sockets.
    pub http_addr: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            block_size: DEFAULT_BLOCK_SIZE,
            fanout: DEFAULT_FANOUT as u16,
            cache_blocks: 1024,
            cache_shards: 8,
            verify_appends: false,
            trace_events: 512,
            group_commit: true,
            shards: 4,
            http_addr: None,
        }
    }
}

impl ServiceConfig {
    /// A small-block configuration convenient for tests. Single-domain
    /// (`shards: 1`): most service tests reason about one append stream
    /// and one volume sequence.
    #[must_use]
    pub fn small() -> ServiceConfig {
        ServiceConfig {
            block_size: 256,
            fanout: 4,
            cache_blocks: 64,
            shards: 1,
            ..ServiceConfig::default()
        }
    }

    /// Sets the append-domain shard count (see [`ServiceConfig::shards`]).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> ServiceConfig {
        self.shards = shards;
        self
    }

    /// Validates the configuration, returning a typed error instead of
    /// letting a bad geometry, cache size or shard count panic deep inside
    /// create/recover.
    pub fn validate(&self) -> Result<()> {
        if !(MIN_BLOCK_SIZE..=MAX_BLOCK_SIZE).contains(&self.block_size) {
            return Err(ClioError::BadConfig(format!(
                "block_size must be {MIN_BLOCK_SIZE}..={MAX_BLOCK_SIZE}, got {}",
                self.block_size
            )));
        }
        if !(2..=MAX_FANOUT).contains(&usize::from(self.fanout)) {
            return Err(ClioError::BadConfig(format!(
                "fanout must be 2..={MAX_FANOUT}, got {}",
                self.fanout
            )));
        }
        if self.cache_blocks == 0 || self.cache_shards == 0 {
            return Err(ClioError::BadConfig(
                "cache_blocks and cache_shards must be at least 1".into(),
            ));
        }
        if self.shards == 0 {
            return Err(ClioError::BadConfig("shards must be at least 1".into()));
        }
        if !self.shards.is_power_of_two() {
            return Err(ClioError::BadConfig(format!(
                "shards must be a power of two, got {}",
                self.shards
            )));
        }
        if self.shards > MAX_SHARDS {
            return Err(ClioError::BadConfig(format!(
                "shards must be at most {MAX_SHARDS}, got {}",
                self.shards
            )));
        }
        Ok(())
    }

    /// Enables append verification (see [`ServiceConfig::verify_appends`]).
    #[must_use]
    pub fn with_verified_appends(mut self) -> ServiceConfig {
        self.verify_appends = true;
        self
    }

    /// Sets the HTTP observability bind address (see
    /// [`ServiceConfig::http_addr`]).
    #[must_use]
    pub fn with_http_addr(mut self, addr: &str) -> ServiceConfig {
        self.http_addr = Some(addr.to_string());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = ServiceConfig::default();
        assert_eq!(c.block_size, 1024);
        assert_eq!(c.fanout, 16);
        assert!(!c.verify_appends);
        assert_eq!(c.cache_shards, 8);
        assert_eq!(c.shards, 4);
        assert_eq!(ServiceConfig::small().shards, 1);
        assert_eq!(ServiceConfig::small().with_shards(8).shards, 8);
        assert!(c.http_addr.is_none());
        assert_eq!(
            ServiceConfig::small()
                .with_http_addr("127.0.0.1:0")
                .http_addr,
            Some("127.0.0.1:0".to_string())
        );
        assert!(
            ServiceConfig::small()
                .with_verified_appends()
                .verify_appends
        );
    }

    #[test]
    fn every_field_that_can_panic_is_validated() {
        fn row(field: &str, with: impl Fn(usize) -> ServiceConfig, bad: &[usize], good: &[usize]) {
            for &v in bad {
                let e = with(v).validate();
                assert!(
                    matches!(e, Err(ClioError::BadConfig(_))),
                    "{field}={v} should be rejected, got {e:?}"
                );
            }
            for &v in good {
                with(v)
                    .validate()
                    .unwrap_or_else(|e| panic!("{field}={v} should be accepted: {e}"));
            }
        }
        assert!(ServiceConfig::default().validate().is_ok());
        let small = ServiceConfig::small;
        row(
            "shards",
            |shards| ServiceConfig { shards, ..small() },
            &[0, 3, 6, MAX_SHARDS * 2],
            &[1, MAX_SHARDS],
        );
        row(
            "fanout",
            |v| ServiceConfig {
                fanout: v as u16,
                ..small()
            },
            &[0, 1, MAX_FANOUT + 1, u16::MAX as usize],
            &[2, MAX_FANOUT],
        );
        row(
            "block_size",
            |block_size| ServiceConfig {
                block_size,
                ..small()
            },
            &[0, MIN_BLOCK_SIZE - 1, MAX_BLOCK_SIZE + 1],
            &[MIN_BLOCK_SIZE, MAX_BLOCK_SIZE],
        );
        row(
            "cache_blocks",
            |cache_blocks| ServiceConfig {
                cache_blocks,
                ..small()
            },
            &[0],
            &[1],
        );
        row(
            "cache_shards",
            |cache_shards| ServiceConfig {
                cache_shards,
                ..small()
            },
            &[0],
            &[1, 3],
        );
    }
}
