//! Device-level replication.
//!
//! §5.1, footnote 11: "our design does not preclude the possibility of
//! replication occurring at the log device level (that is, with mirrored
//! disks)." [`MirroredDevice`] presents `k` write-once replicas as one log
//! device: appends go to every replica; reads are served by the first
//! replica whose copy passes a validity check, falling over to the
//! others — so a block corrupted on one medium is transparently read from
//! its mirror, and invalidation (§2.3.2) is only needed when *every*
//! replica is bad.
//!
//! The default validity check only screens invalidated (all-1s) copies;
//! install a real one with [`MirroredDevice::with_validator`] (the log
//! service's block CRC makes a natural validator) to also fail garbage
//! corruption over to the surviving replica.

use clio_types::{BlockNo, ClioError, Result};

use crate::traits::{check_len, LogDevice, SharedDevice};

/// Decides whether a block image read from a replica is intact.
pub type BlockValidator = Box<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// A set of write-once replicas behaving as one device.
pub struct MirroredDevice {
    replicas: Vec<SharedDevice>,
    validator: Option<BlockValidator>,
}

impl MirroredDevice {
    /// Mirrors over `replicas` (at least one; identical geometry).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty or geometries disagree — mirror
    /// membership is a configuration, not runtime input.
    #[must_use]
    pub fn new(replicas: Vec<SharedDevice>) -> MirroredDevice {
        assert!(!replicas.is_empty(), "a mirror needs at least one replica");
        let bs = replicas[0].block_size();
        let cap = replicas[0].capacity_blocks();
        for r in &replicas {
            assert_eq!(r.block_size(), bs, "replica block sizes disagree");
            assert_eq!(r.capacity_blocks(), cap, "replica capacities disagree");
        }
        MirroredDevice {
            replicas,
            validator: None,
        }
    }

    /// Installs a block validator; reads fail over to the next replica
    /// when a copy does not validate (not just when it is all-1s).
    #[must_use]
    pub fn with_validator(mut self, validator: BlockValidator) -> MirroredDevice {
        self.validator = Some(validator);
        self
    }

    /// Number of replicas.
    #[must_use]
    pub fn width(&self) -> usize {
        self.replicas.len()
    }

    /// Direct access to replica `i` (test hook for injecting divergence).
    #[must_use]
    pub fn replica(&self, i: usize) -> &SharedDevice {
        &self.replicas[i]
    }
}

/// A quick plausibility check: all-1s blocks are invalidated copies; the
/// full CRC check happens at the format layer, so the mirror only screens
/// out blocks its own invalidation wrote.
fn looks_invalidated(buf: &[u8]) -> bool {
    buf.iter().all(|&b| b == clio_types::INVALIDATED_BYTE)
}

impl LogDevice for MirroredDevice {
    fn block_size(&self) -> usize {
        self.replicas[0].block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.replicas[0].capacity_blocks()
    }

    fn query_end(&self) -> Option<BlockNo> {
        // The mirror is as long as its shortest replica (a replica that
        // missed an append is behind; its copy of the tail is absent).
        self.replicas
            .iter()
            .map(|r| r.query_end())
            .collect::<Option<Vec<_>>>()
            .map(|ends| {
                ends.into_iter()
                    .min()
                    .expect("invariant: Mirror::new rejects an empty replica set")
            })
    }

    fn is_written(&self, block: BlockNo) -> Result<bool> {
        for r in &self.replicas {
            if !r.is_written(block)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        self.append_blocks(expected, &[data])
    }

    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        for b in blocks {
            check_len(self.block_size(), b.len())?;
        }
        let n = blocks.len() as u64;
        // All replicas receive the append; the first hard failure aborts
        // (the already-written replicas simply run ahead, which
        // `query_end`'s min() masks until the append is retried).
        let mut accepted = false;
        let mut ahead_end = None;
        for r in &self.replicas {
            match r.append_blocks(expected, blocks) {
                Ok(()) => accepted = true,
                // A replica ahead of `expected` already has a prefix of the
                // batch from a previous partially-failed attempt: same
                // data, same slots. Complete its missing suffix, or leave
                // it alone if it already has the whole batch.
                Err(ClioError::NotAppendOnly { end, .. }) if end > expected => {
                    if end.0 >= expected.0 + n {
                        ahead_end = Some(end);
                    } else {
                        let have = (end.0 - expected.0) as usize;
                        r.append_blocks(end, &blocks[have..])?;
                        accepted = true;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if !accepted {
            // No replica was missing a block: this is a genuine attempt to
            // rewrite written storage, not a catch-up retry.
            return Err(ClioError::NotAppendOnly {
                attempted: expected,
                end: ahead_end.unwrap_or(expected),
            });
        }
        Ok(())
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        let mut last_err = None;
        let mut fallback: Option<Vec<u8>> = None;
        for r in &self.replicas {
            match r.read_block(block, buf) {
                Ok(()) => {
                    let intact =
                        !looks_invalidated(buf) && self.validator.as_ref().is_none_or(|v| v(buf));
                    if intact {
                        return Ok(());
                    }
                    // Keep a coherent copy as the fallback (label block 0
                    // and other non-log blocks may legitimately fail a log
                    // validator) — a later replica's *failed* read may
                    // partially clobber `buf`, so snapshot it now.
                    if fallback.is_none() {
                        fallback = Some(buf.to_vec());
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        if let Some(copy) = fallback {
            // Every readable copy failed validation; return the first one
            // coherently and let the format layer classify it.
            buf.copy_from_slice(&copy);
            return Ok(());
        }
        Err(last_err.unwrap_or_else(|| ClioError::Internal("mirror with no replicas".into())))
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        for r in &self.replicas {
            r.invalidate_block(block)?;
        }
        Ok(())
    }

    fn rewrite_tail(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        for r in &self.replicas {
            r.rewrite_tail(block, data)?;
        }
        Ok(())
    }

    fn supports_tail_rewrite(&self) -> bool {
        self.replicas.iter().all(|r| r.supports_tail_rewrite())
    }

    fn sync(&self) -> Result<()> {
        for r in &self.replicas {
            r.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::MemWormDevice;

    fn mirror(width: usize) -> (Vec<Arc<MemWormDevice>>, MirroredDevice) {
        let raw: Vec<Arc<MemWormDevice>> = (0..width)
            .map(|_| Arc::new(MemWormDevice::new(64, 32)))
            .collect();
        let shared: Vec<SharedDevice> = raw.iter().map(|r| r.clone() as SharedDevice).collect();
        (raw, MirroredDevice::new(shared))
    }

    #[test]
    fn appends_reach_every_replica() {
        let (raw, m) = mirror(3);
        m.append_block(BlockNo(0), &[7u8; 64]).unwrap();
        for r in &raw {
            let mut buf = vec![0u8; 64];
            r.read_block(BlockNo(0), &mut buf).unwrap();
            assert_eq!(buf, vec![7u8; 64]);
        }
        assert_eq!(m.query_end(), Some(BlockNo(1)));
    }

    #[test]
    fn read_falls_over_to_a_good_replica() {
        let (raw, m) = mirror(2);
        m.append_block(BlockNo(0), &[9u8; 64]).unwrap();
        // Replica 0's copy rots away (scribbled to all-1s — the state our
        // invalidation would leave).
        raw[0].invalidate_block(BlockNo(0)).unwrap();
        let mut buf = vec![0u8; 64];
        m.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, vec![9u8; 64], "served from the surviving mirror");
    }

    #[test]
    fn all_replicas_bad_reads_invalidated() {
        let (raw, m) = mirror(2);
        m.append_block(BlockNo(0), &[9u8; 64]).unwrap();
        for r in &raw {
            r.invalidate_block(BlockNo(0)).unwrap();
        }
        let mut buf = vec![0u8; 64];
        m.read_block(BlockNo(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn append_only_still_enforced() {
        let (_, m) = mirror(2);
        m.append_block(BlockNo(0), &[1u8; 64]).unwrap();
        assert!(matches!(
            m.append_block(BlockNo(0), &[2u8; 64]).unwrap_err(),
            ClioError::NotAppendOnly { .. }
        ));
        assert!(matches!(
            m.append_block(BlockNo(5), &[2u8; 64]).unwrap_err(),
            ClioError::NotAppendOnly { .. }
        ));
    }

    #[test]
    fn partial_append_retries_converge() {
        // Simulate a torn mirror append: replica 0 got the block, replica 1
        // did not (we model it by appending to replica 0 directly).
        let (raw, m) = mirror(2);
        raw[0].append_block(BlockNo(0), &[3u8; 64]).unwrap();
        assert_eq!(m.query_end(), Some(BlockNo(0)), "mirror end is the min");
        // Retrying through the mirror completes the lagging replica and is
        // a no-op on the one that ran ahead.
        m.append_block(BlockNo(0), &[3u8; 64]).unwrap();
        assert_eq!(m.query_end(), Some(BlockNo(1)));
        let mut buf = vec![0u8; 64];
        raw[1].read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, vec![3u8; 64]);
    }
}
