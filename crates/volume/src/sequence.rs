//! Volume sequences: chains of volumes ordered by time of writing.

use std::sync::Arc;

use clio_testkit::sync::atomic::{AtomicU32, Ordering};
use clio_testkit::sync::RwLock;

use clio_cache::BlockCache;
use clio_device::SharedDevice;
use clio_types::{ClioError, Result, Timestamp, VolumeId, VolumeSeqId};

use crate::pool::DevicePool;
use crate::volume::Volume;

/// A totally ordered chain of volumes holding one log volume sequence.
///
/// "The newest volume in each volume sequence is assumed to be on-line,
/// both for reading and writing. Many of the previous volumes … may also be
/// available for reading (only)" (§2.1). Here every volume stays mounted;
/// the *active* volume (the last) is the only writable one.
pub struct VolumeSequence {
    seq: VolumeSeqId,
    cache: Arc<BlockCache>,
    pool: Arc<dyn DevicePool>,
    volumes: RwLock<Vec<Arc<Volume>>>,
    base_device_id: u32,
    next_device_id: AtomicU32,
}

impl VolumeSequence {
    /// Deterministic volume id for position `index` of sequence `seq`.
    fn volume_id(seq: VolumeSeqId, index: u32) -> VolumeId {
        VolumeId(
            seq.0
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(index)),
        )
    }

    /// Creates a fresh sequence, formatting its first volume from the pool.
    ///
    /// `base_device_id` is the first cache device id this sequence may use
    /// (it uses `base..base+volumes`); the caller partitions the id space
    /// between sequences and any co-resident conventional file systems.
    pub fn create(
        seq: VolumeSeqId,
        cache: Arc<BlockCache>,
        pool: Arc<dyn DevicePool>,
        base_device_id: u32,
        block_size: usize,
        fanout: u16,
        now: Timestamp,
    ) -> Result<VolumeSequence> {
        let device = pool.next_device()?;
        let label = Volume::first_label(Self::volume_id(seq, 0), seq, block_size, fanout, now);
        let v = Volume::format(device, base_device_id, cache.clone(), label)?;
        Ok(VolumeSequence {
            seq,
            cache,
            pool,
            // io class: extend() formats the next device while holding
            // the write guard so the chain stays contiguous.
            volumes: RwLock::with_class_io(vec![Arc::new(v)], "volume.volumes"),
            base_device_id,
            next_device_id: AtomicU32::new(base_device_id + 1),
        })
    }

    /// Mounts an existing sequence from its devices (any order); validates
    /// the chain: matching sequence ids, contiguous indexes, predecessor
    /// links, and uniform geometry.
    pub fn open(
        devices: Vec<SharedDevice>,
        cache: Arc<BlockCache>,
        pool: Arc<dyn DevicePool>,
        base_device_id: u32,
    ) -> Result<VolumeSequence> {
        if devices.is_empty() {
            return Err(ClioError::Internal(
                "cannot open an empty volume set".into(),
            ));
        }
        let mut vols = Vec::with_capacity(devices.len());
        for (i, dev) in devices.into_iter().enumerate() {
            let v = Volume::open(dev, base_device_id + i as u32, cache.clone())?;
            vols.push(Arc::new(v));
        }
        vols.sort_by_key(|v| v.label().volume_index);
        let seq = vols[0].label().sequence;
        for (i, v) in vols.iter().enumerate() {
            let l = v.label();
            if l.sequence != seq {
                return Err(ClioError::Internal(format!(
                    "volume {} belongs to {}, expected {seq}",
                    l.volume, l.sequence
                )));
            }
            if l.volume_index as usize != i {
                return Err(ClioError::Internal(format!(
                    "volume chain has a gap at index {i}"
                )));
            }
            if i > 0 {
                let prev = vols[i - 1].label();
                if l.predecessor != Some(prev.volume) {
                    return Err(ClioError::Internal(format!(
                        "volume {} does not chain to {}",
                        l.volume, prev.volume
                    )));
                }
                if l.block_size != prev.block_size || l.fanout != prev.fanout {
                    return Err(ClioError::Internal("geometry changes mid-sequence".into()));
                }
            }
        }
        let count = vols.len() as u32;
        Ok(VolumeSequence {
            seq,
            cache,
            pool,
            volumes: RwLock::with_class_io(vols, "volume.volumes"),
            base_device_id,
            next_device_id: AtomicU32::new(base_device_id + count),
        })
    }

    /// The sequence id.
    #[must_use]
    pub fn seq_id(&self) -> VolumeSeqId {
        self.seq
    }

    /// The shared block cache.
    #[must_use]
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Block size of every volume in the sequence.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.volumes.read()[0].label().block_size as usize
    }

    /// Entrymap degree of the sequence.
    #[must_use]
    pub fn fanout(&self) -> u16 {
        self.volumes.read()[0].label().fanout
    }

    /// Number of mounted volumes.
    #[must_use]
    pub fn volume_count(&self) -> u32 {
        self.volumes.read().len() as u32
    }

    /// The volume at `index`.
    pub fn volume(&self, index: u32) -> Result<Arc<Volume>> {
        self.volumes
            .read()
            .get(index as usize)
            .cloned()
            .ok_or_else(|| ClioError::NotFound(format!("volume index {index}")))
    }

    /// The newest (writable) volume.
    #[must_use]
    pub fn active(&self) -> Arc<Volume> {
        self.volumes
            .read()
            .last()
            .expect("invariant: create/open seed volume 0 and extend only appends")
            .clone()
    }

    /// Dismounts the volume at `index` (§2.1: older volumes may be taken
    /// off-line and "made available on demand"). The newest volume must
    /// stay mounted — it is the read/write head of the sequence.
    pub fn set_offline(&self, index: u32) -> Result<()> {
        let g = self.volumes.read();
        if index as usize + 1 == g.len() {
            return Err(ClioError::Internal(
                "the active volume cannot be taken offline".into(),
            ));
        }
        let v = g
            .get(index as usize)
            .ok_or_else(|| ClioError::NotFound(format!("volume index {index}")))?;
        v.set_online(false);
        Ok(())
    }

    /// Remounts the volume at `index`.
    pub fn bring_online(&self, index: u32) -> Result<()> {
        let g = self.volumes.read();
        let v = g
            .get(index as usize)
            .ok_or_else(|| ClioError::NotFound(format!("volume index {index}")))?;
        v.set_online(true);
        Ok(())
    }

    /// Loads and formats a successor volume (§2.1), returning it.
    pub fn extend(&self, now: Timestamp) -> Result<Arc<Volume>> {
        let device = self.pool.next_device()?;
        let mut g = self.volumes.write();
        let last = g
            .last()
            .expect("invariant: create/open seed volume 0 and extend only appends");
        let index = last.label().volume_index + 1;
        let label = last
            .label()
            .successor(Self::volume_id(self.seq, index), now);
        let device_id = self.next_device_id.fetch_add(1, Ordering::Relaxed);
        debug_assert!(device_id >= self.base_device_id);
        let v = Arc::new(Volume::format(
            device,
            device_id,
            self.cache.clone(),
            label,
        )?);
        g.push(v.clone());
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::MemDevicePool;

    fn seq() -> VolumeSequence {
        let cache = Arc::new(BlockCache::new(128));
        let pool = Arc::new(MemDevicePool::new(256, 8));
        VolumeSequence::create(VolumeSeqId(5), cache, pool, 0, 256, 16, Timestamp(1)).unwrap()
    }

    #[test]
    fn create_has_one_empty_volume() {
        let s = seq();
        assert_eq!(s.volume_count(), 1);
        assert_eq!(s.block_size(), 256);
        assert_eq!(s.fanout(), 16);
        let v = s.active();
        assert_eq!(v.data_end(), 0);
        assert_eq!(v.label().volume_index, 0);
    }

    #[test]
    fn extend_chains_volumes() {
        let s = seq();
        let v0 = s.active();
        let v1 = s.extend(Timestamp(9)).unwrap();
        assert_eq!(s.volume_count(), 2);
        assert_eq!(v1.label().volume_index, 1);
        assert_eq!(v1.label().predecessor, Some(v0.label().volume));
        assert_eq!(v1.label().sequence, v0.label().sequence);
        assert_eq!(s.active().label().volume, v1.label().volume);
        // Device ids are distinct so the shared cache keeps them apart.
        assert_ne!(v0.device_id(), v1.device_id());
    }

    #[test]
    fn volume_lookup_by_index() {
        let s = seq();
        s.extend(Timestamp(9)).unwrap();
        assert_eq!(s.volume(0).unwrap().label().volume_index, 0);
        assert_eq!(s.volume(1).unwrap().label().volume_index, 1);
        assert!(s.volume(2).is_err());
    }

    #[test]
    fn reopen_validates_and_orders_chain() {
        let cache = Arc::new(BlockCache::new(128));
        let pool = Arc::new(MemDevicePool::new(256, 8));
        let devices;
        {
            // Build a 3-volume sequence, capturing the devices as we go.
            let pool2 = pool.clone();
            struct Capture {
                inner: Arc<MemDevicePool>,
                out: Arc<clio_testkit::sync::Mutex<Vec<SharedDevice>>>,
            }
            impl DevicePool for Capture {
                fn next_device(&self) -> Result<SharedDevice> {
                    let d = self.inner.next_device()?;
                    self.out.lock().push(d.clone());
                    Ok(d)
                }
            }
            let out = Arc::new(clio_testkit::sync::Mutex::new(Vec::new()));
            let cap = Arc::new(Capture {
                inner: pool2,
                out: out.clone(),
            });
            let s = VolumeSequence::create(
                VolumeSeqId(5),
                cache.clone(),
                cap.clone(),
                0,
                256,
                16,
                Timestamp(1),
            )
            .unwrap();
            s.extend(Timestamp(2)).unwrap();
            s.extend(Timestamp(3)).unwrap();
            s.active()
                .append_data_blocks(0, &[Arc::new(vec![1u8; 256])])
                .unwrap();
            devices = out.lock().clone();
        }
        // Shuffle the devices; open must sort and validate.
        let mut devices = devices;
        devices.swap(0, 2);
        let s = VolumeSequence::open(devices, Arc::new(BlockCache::new(128)), pool, 0).unwrap();
        assert_eq!(s.volume_count(), 3);
        assert_eq!(s.active().data_end(), 1);
        assert_eq!(s.seq_id(), VolumeSeqId(5));
    }

    #[test]
    fn reopen_rejects_gap() {
        let cache = Arc::new(BlockCache::new(128));
        let pool: Arc<MemDevicePool> = Arc::new(MemDevicePool::new(256, 8));
        // Build two separate sequences and mix their volumes.
        let s1 = VolumeSequence::create(
            VolumeSeqId(1),
            cache.clone(),
            pool.clone(),
            0,
            256,
            16,
            Timestamp(1),
        )
        .unwrap();
        let s2 = VolumeSequence::create(
            VolumeSeqId(2),
            cache.clone(),
            pool.clone(),
            10,
            256,
            16,
            Timestamp(1),
        )
        .unwrap();
        let _ = (s1, s2);
        // Opening a set containing volumes of different sequences fails; we
        // can't easily extract devices from the sequences (by design), so
        // build a fresh mismatched pair directly.
        let d1 = pool.next_device().unwrap();
        let d2 = pool.next_device().unwrap();
        let l1 = Volume::first_label(VolumeId(1), VolumeSeqId(7), 256, 16, Timestamp(0));
        let l2 = Volume::first_label(VolumeId(2), VolumeSeqId(8), 256, 16, Timestamp(0));
        Volume::format(d1.clone(), 0, cache.clone(), l1).unwrap();
        Volume::format(d2.clone(), 1, cache.clone(), l2).unwrap();
        assert!(VolumeSequence::open(vec![d1, d2], cache, pool, 0).is_err());
    }
}
