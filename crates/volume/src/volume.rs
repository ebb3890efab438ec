//! A single log volume: one write-once device plus its label.

use std::cell::Cell;
use std::sync::Arc;

use clio_testkit::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use clio_types::{BlockNo, ClioError, Result, Timestamp, VolumeId, VolumeSeqId};

use clio_cache::{BlockCache, CacheKey, DeviceId};
use clio_device::traits::locate_end;
use clio_device::SharedDevice;
use clio_format::{ParsedBlock, VolumeLabel};

/// A mounted log volume.
///
/// Device block 0 holds the [`VolumeLabel`]; *data blocks* are numbered
/// from 0 and live at device block `db + 1`. All reads go through the
/// shared [`BlockCache`]; appends write through the cache so recently
/// written data is hot (§3.3: reads of recent data "are likely to be
/// satisfied from the file server's in-memory cache"). The cache holds
/// verified blocks: a block read off the medium is CRC-checked once, as it
/// fills the cache, and a written-through block was made by the builder.
pub struct Volume {
    device: SharedDevice,
    device_id: DeviceId,
    cache: Arc<BlockCache<ParsedBlock>>,
    label: VolumeLabel,
    /// Number of *data* blocks written (device end minus the label block).
    data_end: AtomicU64,
    /// Probes spent locating the end at open time (0 if queried directly).
    end_probes: u64,
    /// Whether the medium is mounted. Older volumes of a sequence may be
    /// dismounted and "made available on demand" (§2.1); reads of an
    /// offline volume fail with [`ClioError::VolumeOffline`].
    online: AtomicBool,
}

impl Volume {
    /// Formats a fresh device with `label` (writes device block 0).
    pub fn format(
        device: SharedDevice,
        device_id: DeviceId,
        cache: Arc<BlockCache<ParsedBlock>>,
        label: VolumeLabel,
    ) -> Result<Volume> {
        if device.block_size() != label.block_size as usize {
            return Err(ClioError::Internal(format!(
                "device block size {} disagrees with label {}",
                device.block_size(),
                label.block_size
            )));
        }
        let image = label.encode(device.block_size());
        device.append_block(BlockNo(0), &image)?;
        Ok(Volume {
            device,
            device_id,
            cache,
            label,
            data_end: AtomicU64::new(0),
            end_probes: 0,
            online: AtomicBool::new(true),
        })
    }

    /// Mounts an already-formatted device, reading its label and locating
    /// the end of the written portion (§2.3.1 initialization step 1 — by
    /// query or binary search).
    pub fn open(
        device: SharedDevice,
        device_id: DeviceId,
        cache: Arc<BlockCache<ParsedBlock>>,
    ) -> Result<Volume> {
        let mut label_img = vec![0u8; device.block_size()];
        device.read_block(BlockNo(0), &mut label_img)?;
        let label = VolumeLabel::decode(&label_img)?;
        let (end, probes) = locate_end(&*device)?;
        if end.0 == 0 {
            return Err(ClioError::Internal(
                "formatted volume lost its label".into(),
            ));
        }
        Ok(Volume {
            device,
            device_id,
            cache,
            label,
            data_end: AtomicU64::new(end.0 - 1),
            end_probes: probes,
            online: AtomicBool::new(true),
        })
    }

    /// The volume label.
    #[must_use]
    pub fn label(&self) -> &VolumeLabel {
        &self.label
    }

    /// The cache device id.
    #[must_use]
    pub fn device_id(&self) -> DeviceId {
        self.device_id
    }

    /// Probes spent finding the end at mount time.
    #[must_use]
    pub fn end_probes(&self) -> u64 {
        self.end_probes
    }

    /// Number of data blocks written.
    #[must_use]
    pub fn data_end(&self) -> u64 {
        self.data_end.load(Ordering::Acquire)
    }

    /// Number of data blocks the medium can hold in total.
    #[must_use]
    pub fn data_capacity(&self) -> u64 {
        self.device.capacity_blocks().saturating_sub(1)
    }

    /// Whether every data block has been written.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.data_end() >= self.data_capacity()
    }

    /// Whether the device supports rewriteable tail staging (§2.3.1).
    #[must_use]
    pub fn supports_tail_rewrite(&self) -> bool {
        self.device.supports_tail_rewrite()
    }

    fn key(&self, db: u64) -> CacheKey {
        CacheKey::new(self.device_id, BlockNo(db + 1))
    }

    /// Whether the medium is mounted.
    #[must_use]
    pub fn is_online(&self) -> bool {
        self.online.load(Ordering::Acquire)
    }

    /// Dismounts or remounts the medium (the sequence layer guards against
    /// taking the active volume offline). Dismounting also drops nothing
    /// from the cache — cached blocks of an offline volume remain readable,
    /// exactly like a RAM copy of an archived disk.
    pub fn set_online(&self, online: bool) {
        self.online.store(online, Ordering::Release);
    }

    fn check_online(&self) -> Result<()> {
        if self.is_online() {
            Ok(())
        } else {
            Err(ClioError::VolumeOffline(self.label.volume_index))
        }
    }

    /// Reads and verifies data block `db` through the cache. A block that
    /// fails its check is an error like the medium not answering; the
    /// reader, which must tell the two apart, uses
    /// [`Volume::read_data_block_counted`].
    pub fn read_data_block(&self, db: u64) -> Result<ParsedBlock> {
        self.read_data_block_counted(db, &Cell::new(0))?
    }

    /// Reads and verifies data block `db` through the cache, adding one to
    /// `device_loads` when this very call went to the medium (a cache miss
    /// it led) — so a caller can attribute device reads to its own
    /// operation, not to whoever else is reading the same devices. The
    /// outer error is the medium not answering (unwritten, offline, I/O);
    /// the inner result is the block's §2.3.2 verdict — invalidated or
    /// corrupt — exactly as [`ParsedBlock::parse`] gives it.
    pub fn read_data_block_counted(
        &self,
        db: u64,
        device_loads: &Cell<u64>,
    ) -> Result<Result<ParsedBlock>> {
        if db >= self.data_end() {
            return Err(ClioError::UnwrittenBlock(BlockNo(db + 1)));
        }
        // The fill is the one CRC check a block read off the medium gets;
        // a block that fails it is not cached, and its verdict is this
        // read's answer. The online check lives in the loader: a cache hit
        // serves even an offline volume (like a RAM copy of an archived
        // disk); only an actual device read needs the medium.
        let mut failed_check = false;
        let loaded = self.cache.get_or_load(self.key(db), || {
            self.check_online()?;
            device_loads.set(device_loads.get() + 1);
            let mut buf = vec![0u8; self.device.block_size()];
            self.device.read_block(BlockNo(db + 1), &mut buf)?;
            ParsedBlock::parse(Arc::new(buf)).inspect_err(|_| failed_check = true)
        });
        match loaded {
            Err(verdict) if failed_check => Ok(Err(verdict)),
            r => r.map(Ok),
        }
    }

    /// Reads data block `db` straight from the device, bypassing the
    /// cache — used to *verify* a just-written block, which the cache (by
    /// design write-through) would otherwise mask (§2.3.2 detection).
    pub fn read_data_block_direct(&self, db: u64) -> Result<Vec<u8>> {
        if db >= self.data_end() {
            return Err(ClioError::UnwrittenBlock(BlockNo(db + 1)));
        }
        self.check_online()?;
        let mut buf = vec![0u8; self.device.block_size()];
        self.device.read_block(BlockNo(db + 1), &mut buf)?;
        Ok(buf)
    }

    /// Appends a run of data blocks starting at `first_db` in one vectored
    /// device write, write-through: the cache takes the verified blocks
    /// themselves.
    ///
    /// `first_db` must be the current end, or — when the device stages its
    /// tail in rewriteable RAM — the staged tail block itself, in which
    /// case the batch's first image *seals* it onto the write-once medium
    /// (§2.3.1). On error the device may have landed a prefix of the batch
    /// (a torn batch); the volume resynchronises `data_end` from the device
    /// and caches exactly the blocks that landed, so the caller can tell
    /// how far the write got from `data_end()` and recovery sees a
    /// consistent medium.
    pub fn append_data_blocks(&self, first_db: u64, images: &[ParsedBlock]) -> Result<()> {
        if images.is_empty() {
            return Ok(());
        }
        let end = self.data_end();
        if first_db != end && first_db + 1 != end {
            return Err(ClioError::NotAppendOnly {
                attempted: BlockNo(first_db + 1),
                end: BlockNo(end + 1),
            });
        }
        let refs: Vec<&[u8]> = images.iter().map(|i| i.image().as_slice()).collect();
        let r = self.device.append_blocks(BlockNo(first_db + 1), &refs);
        let landed = match &r {
            Ok(()) => images.len() as u64,
            Err(_) => {
                let (dev_end, _) = locate_end(&*self.device)?;
                dev_end
                    .0
                    .saturating_sub(first_db + 1)
                    .min(images.len() as u64)
            }
        };
        for (i, img) in images.iter().take(landed as usize).enumerate() {
            self.cache.put(self.key(first_db + i as u64), img.clone());
        }
        self.data_end
            .store((first_db + landed).max(end), Ordering::Release);
        r
    }

    /// Rewrites the tail data block in non-volatile staging (devices with a
    /// RAM tail only). `db` may be the block at the current end (opening
    /// the tail) or the last written one (if it is still in the tail
    /// buffer); the device enforces the exact rule.
    pub fn rewrite_tail_data(&self, db: u64, image: ParsedBlock) -> Result<()> {
        self.device.rewrite_tail(BlockNo(db + 1), image.image())?;
        self.cache.put(self.key(db), image);
        let end = self.data_end();
        if db >= end {
            self.data_end.store(db + 1, Ordering::Release);
        }
        Ok(())
    }

    /// Burns data block `db` to all 1s (§2.3.2) and drops it from the
    /// cache whatever the device answers: a block is burned because the
    /// medium does not hold what was written through, and after a failed
    /// burn the next read must find out what it does hold.
    pub fn invalidate_data_block(&self, db: u64) -> Result<()> {
        let burned = self.device.invalidate_block(BlockNo(db + 1));
        self.cache.invalidate(self.key(db));
        burned
    }

    /// Flushes the device.
    pub fn sync(&self) -> Result<()> {
        self.device.sync()
    }
}

/// Convenience label constructors used by the sequence layer.
impl Volume {
    /// Builds the label for the first volume of a new sequence.
    #[must_use]
    pub fn first_label(
        volume: VolumeId,
        sequence: VolumeSeqId,
        block_size: usize,
        fanout: u16,
        created: Timestamp,
    ) -> VolumeLabel {
        let mut label = VolumeLabel::first(volume, sequence, block_size as u32, created);
        label.fanout = fanout;
        label
    }
}

#[cfg(test)]
mod tests {
    use clio_device::MemWormDevice;
    use clio_format::{BlockBuilder, EntryForm, EntryHeader};
    use clio_types::LogFileId;

    use super::*;

    fn fresh(cap: u64) -> Volume {
        let dev: SharedDevice = Arc::new(MemWormDevice::new(256, cap));
        let cache = Arc::new(BlockCache::new(64));
        let label = Volume::first_label(VolumeId(1), VolumeSeqId(2), 256, 16, Timestamp(0));
        Volume::format(dev, 0, cache, label).unwrap()
    }

    /// A one-entry block whose first timestamp is `tag`.
    fn block(tag: u8) -> ParsedBlock {
        let mut b = BlockBuilder::new(256, Timestamp(u64::from(tag)));
        let header = EntryHeader::new(LogFileId(8), EntryForm::Minimal, None, None);
        b.push(&header, &[tag; 16]);
        b.finish_parsed()
    }

    /// The tag of the verified block at `db`.
    fn tag(v: &Volume, db: u64) -> u8 {
        v.read_data_block(db).unwrap().view().first_ts().0 as u8
    }

    /// Appends one block tagged `tag` at `db`.
    fn put(v: &Volume, db: u64, tag: u8) -> Result<()> {
        v.append_data_blocks(db, &[block(tag)])
    }

    #[test]
    fn format_writes_label_and_starts_empty() {
        let v = fresh(10);
        assert_eq!(v.data_end(), 0);
        assert_eq!(v.data_capacity(), 9);
        assert!(!v.is_full());
        assert!(v.read_data_block(0).is_err());
    }

    #[test]
    fn append_then_read_via_cache() {
        let v = fresh(10);
        put(&v, 0, 7).unwrap();
        put(&v, 1, 8).unwrap();
        assert_eq!(tag(&v, 1), 8);
        assert_eq!(v.data_end(), 2);
        // Out-of-order appends are rejected.
        assert!(put(&v, 5, 0).is_err());
    }

    #[test]
    fn open_recovers_end() {
        let dev: SharedDevice = Arc::new(MemWormDevice::new(256, 10).without_end_query());
        let cache = Arc::new(BlockCache::new(64));
        let label = Volume::first_label(VolumeId(1), VolumeSeqId(2), 256, 16, Timestamp(0));
        {
            let v = Volume::format(dev.clone(), 0, cache.clone(), label).unwrap();
            put(&v, 0, 1).unwrap();
            put(&v, 1, 2).unwrap();
        }
        // "Crash": new cache, remount from the device alone.
        let cache = Arc::new(BlockCache::new(64));
        let v = Volume::open(dev, 0, cache).unwrap();
        assert_eq!(v.data_end(), 2);
        assert!(v.end_probes() > 0);
        assert_eq!(v.label().volume, VolumeId(1));
        assert_eq!(tag(&v, 0), 1);
    }

    #[test]
    fn open_rejects_unlabelled_device() {
        let dev: SharedDevice = Arc::new(MemWormDevice::new(256, 10));
        dev.append_block(BlockNo(0), &vec![0u8; 256]).unwrap();
        let cache = Arc::new(BlockCache::new(64));
        assert!(Volume::open(dev, 0, cache).is_err());
    }

    #[test]
    fn fills_up() {
        let v = fresh(3);
        put(&v, 0, 0).unwrap();
        assert!(!v.is_full());
        put(&v, 1, 0).unwrap();
        assert!(v.is_full());
        assert!(matches!(put(&v, 2, 0).unwrap_err(), ClioError::VolumeFull));
    }

    #[test]
    fn invalidate_drops_cache() {
        let v = fresh(10);
        put(&v, 0, 9).unwrap();
        assert_eq!(tag(&v, 0), 9);
        v.invalidate_data_block(0).unwrap();
        assert!(matches!(
            v.read_data_block(0),
            Err(ClioError::InvalidatedBlock(_))
        ));
    }

    /// Under append verification a block that reads back garbled is
    /// burned. A burn that failed used to return before the cache dropped
    /// the written-through image, so reads went on serving a block the
    /// medium does not hold.
    #[test]
    fn regression_failed_burn_drops_the_cached_image() {
        use clio_device::{CrashSwitch, FaultyDevice};
        let sw = CrashSwitch::new(27);
        let raw: SharedDevice = Arc::new(MemWormDevice::new(256, 16));
        let faulty = Arc::new(FaultyDevice::with_switch(raw, 0, sw.clone()));
        let cache = Arc::new(BlockCache::new(64));
        let label = Volume::first_label(VolumeId(1), VolumeSeqId(2), 256, 16, Timestamp(0));
        let v = Volume::format(faulty.clone(), 0, cache, label).unwrap();
        faulty.corrupt_next_append();
        put(&v, 0, 5).unwrap();
        sw.arm(1, false);
        assert!(v.invalidate_data_block(0).is_err(), "the burn must fail");
        sw.clear();
        assert!(
            matches!(v.read_data_block(0), Err(ClioError::CorruptBlock(_))),
            "the read must report the garbage on the medium, not the written-through image"
        );
    }

    #[test]
    fn batch_append_writes_through_and_advances_end() {
        let v = fresh(10);
        put(&v, 0, 1).unwrap();
        let images: Vec<ParsedBlock> = (2u8..5).map(block).collect();
        v.append_data_blocks(1, &images).unwrap();
        assert_eq!(v.data_end(), 4);
        for (i, img) in images.iter().enumerate() {
            assert_eq!(v.read_data_block(1 + i as u64).unwrap(), *img);
        }
        // Misplaced batches are rejected without touching the device.
        assert!(v.append_data_blocks(9, &images).is_err());
        assert_eq!(v.data_end(), 4);
        // Empty batches are no-ops.
        v.append_data_blocks(4, &[]).unwrap();
        assert_eq!(v.data_end(), 4);
    }

    #[test]
    fn torn_batch_resyncs_end_from_the_device() {
        use clio_device::FaultyDevice;
        let raw = Arc::new(MemWormDevice::new(256, 16));
        let faulty = Arc::new(FaultyDevice::new(raw));
        let cache = Arc::new(BlockCache::new(64));
        let label = Volume::first_label(VolumeId(1), VolumeSeqId(2), 256, 16, Timestamp(0));
        let v = Volume::format(faulty.clone(), 0, cache, label).unwrap();
        let images: Vec<ParsedBlock> = (1u8..5).map(block).collect();
        faulty.tear_next_batch_after(2);
        assert!(v.append_data_blocks(0, &images).is_err());
        // Two of the four blocks landed; the volume noticed.
        assert_eq!(v.data_end(), 2);
        assert_eq!(tag(&v, 0), 1);
        assert_eq!(tag(&v, 1), 2);
        assert!(v.read_data_block(2).is_err());
        // The write can be resumed where the tear left off.
        v.append_data_blocks(2, &images[2..]).unwrap();
        assert_eq!(v.data_end(), 4);
        assert_eq!(tag(&v, 3), 4);
    }

    #[test]
    fn tail_rewrite_passthrough() {
        use clio_device::RamTailDevice;
        let worm: SharedDevice = Arc::new(MemWormDevice::new(256, 10));
        let dev: SharedDevice = Arc::new(RamTailDevice::new(worm));
        let cache = Arc::new(BlockCache::new(64));
        let label = Volume::first_label(VolumeId(1), VolumeSeqId(2), 256, 16, Timestamp(0));
        let v = Volume::format(dev, 0, cache, label).unwrap();
        assert!(v.supports_tail_rewrite());
        v.rewrite_tail_data(0, block(1)).unwrap();
        v.rewrite_tail_data(0, block(2)).unwrap();
        assert_eq!(v.data_end(), 1);
        assert_eq!(tag(&v, 0), 2);
        // Sealing via append retires the tail.
        put(&v, 0, 3).unwrap();
        assert_eq!(tag(&v, 0), 3);
    }
}
