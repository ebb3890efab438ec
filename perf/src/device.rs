//! Measuring the device and volume-supply layers from outside: a
//! [`LogDevice`] decorator that counts (always) and times (traced run only)
//! every device call, and a [`DevicePool`] decorator that hands such
//! devices out and remembers the raw media for taking crash images.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use clio_device::{LogDevice, MemWormDevice, SharedDevice};
use clio_types::{BlockNo, ClioError, Result};
use clio_volume::DevicePool;

use crate::span;

/// Counters shared by every device of one service instance. `Relaxed`
/// throughout: they are statistics read after the clients have joined.
#[derive(Debug, Default)]
pub struct DeviceCounters {
    /// Write calls: one per `append_block`, one per vectored
    /// `append_blocks` batch, one per tail rewrite.
    pub write_ops: AtomicU64,
    /// Blocks those calls carried.
    pub blocks_written: AtomicU64,
    /// Time inside write calls, ns (traced run only).
    pub write_busy_ns: AtomicU64,
    /// `read_block` calls.
    pub read_ops: AtomicU64,
    /// Time inside `read_block`, ns (traced run only).
    pub read_busy_ns: AtomicU64,
    /// `query_end` and `is_written` calls.
    pub probe_ops: AtomicU64,
    /// `sync` calls.
    pub sync_ops: AtomicU64,
    /// Calls of any kind that returned `Err`.
    pub failed_ops: AtomicU64,
    /// `DevicePool::next_device` calls.
    pub next_device_calls: AtomicU64,
    /// Time inside `next_device`, ns (traced run only).
    pub next_device_ns: AtomicU64,
}

/// A plain copy of [`DeviceCounters`], for deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceSnapshot {
    pub write_ops: u64,
    pub blocks_written: u64,
    pub write_busy_ns: u64,
    pub read_ops: u64,
    pub read_busy_ns: u64,
    pub probe_ops: u64,
    pub sync_ops: u64,
    pub failed_ops: u64,
    pub next_device_calls: u64,
    pub next_device_ns: u64,
}

impl DeviceCounters {
    /// The current readings.
    pub fn snapshot(&self) -> DeviceSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DeviceSnapshot {
            write_ops: get(&self.write_ops),
            blocks_written: get(&self.blocks_written),
            write_busy_ns: get(&self.write_busy_ns),
            read_ops: get(&self.read_ops),
            read_busy_ns: get(&self.read_busy_ns),
            probe_ops: get(&self.probe_ops),
            sync_ops: get(&self.sync_ops),
            failed_ops: get(&self.failed_ops),
            next_device_calls: get(&self.next_device_calls),
            next_device_ns: get(&self.next_device_ns),
        }
    }
}

/// Counts one call, and — while spans are recorded — times it as a child
/// span of the service call that caused it.
fn measured<T>(
    c: &DeviceCounters,
    name: &'static str,
    ops: &AtomicU64,
    busy: Option<&AtomicU64>,
    call: impl FnOnce() -> Result<T>,
) -> Result<T> {
    ops.fetch_add(1, Ordering::Relaxed);
    let r = if span::enabled() {
        let start = span::now_ns();
        let guard = span::enter(name, 0);
        let r = call();
        drop(guard);
        if let Some(busy) = busy {
            busy.fetch_add(span::now_ns().saturating_sub(start), Ordering::Relaxed);
        }
        r
    } else {
        call()
    };
    if r.is_err() {
        c.failed_ops.fetch_add(1, Ordering::Relaxed);
    }
    r
}

/// A [`LogDevice`] that passes every call and result through unchanged.
pub struct TimedDevice {
    inner: SharedDevice,
    c: Arc<DeviceCounters>,
}

impl TimedDevice {
    /// Wraps `inner`, reporting into `c`.
    pub fn wrap(inner: SharedDevice, c: Arc<DeviceCounters>) -> SharedDevice {
        Arc::new(TimedDevice { inner, c })
    }
}

impl LogDevice for TimedDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn query_end(&self) -> Option<BlockNo> {
        self.c.probe_ops.fetch_add(1, Ordering::Relaxed);
        let _span = span::enter("device.probe", 0);
        self.inner.query_end()
    }

    fn is_written(&self, block: BlockNo) -> Result<bool> {
        measured(&self.c, "device.probe", &self.c.probe_ops, None, || {
            self.inner.is_written(block)
        })
    }

    fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
        self.c.blocks_written.fetch_add(1, Ordering::Relaxed);
        measured(
            &self.c,
            "device.write",
            &self.c.write_ops,
            Some(&self.c.write_busy_ns),
            || self.inner.append_block(expected, data),
        )
    }

    // Forwarded as one call — not re-expressed through `append_block` — so a
    // vectored batch is one write op here exactly when it is one for the
    // device underneath (whose own `append_blocks` may be the default loop).
    fn append_blocks(&self, expected: BlockNo, blocks: &[&[u8]]) -> Result<()> {
        self.c
            .blocks_written
            .fetch_add(blocks.len() as u64, Ordering::Relaxed);
        measured(
            &self.c,
            "device.write",
            &self.c.write_ops,
            Some(&self.c.write_busy_ns),
            || self.inner.append_blocks(expected, blocks),
        )
    }

    fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
        measured(
            &self.c,
            "device.read",
            &self.c.read_ops,
            Some(&self.c.read_busy_ns),
            || self.inner.read_block(block, buf),
        )
    }

    fn invalidate_block(&self, block: BlockNo) -> Result<()> {
        measured(
            &self.c,
            "device.write",
            &self.c.write_ops,
            Some(&self.c.write_busy_ns),
            || self.inner.invalidate_block(block),
        )
    }

    fn rewrite_tail(&self, block: BlockNo, data: &[u8]) -> Result<()> {
        self.c.blocks_written.fetch_add(1, Ordering::Relaxed);
        measured(
            &self.c,
            "device.write",
            &self.c.write_ops,
            Some(&self.c.write_busy_ns),
            || self.inner.rewrite_tail(block, data),
        )
    }

    fn supports_tail_rewrite(&self) -> bool {
        self.inner.supports_tail_rewrite()
    }

    fn sync(&self) -> Result<()> {
        measured(&self.c, "device.sync", &self.c.sync_ops, None, || {
            self.inner.sync()
        })
    }
}

/// A [`DevicePool`] fabricating in-memory write-once media, each handed out
/// behind a [`TimedDevice`]. It keeps the raw media, which are what
/// survives a simulated crash.
pub struct TimedPool {
    block_size: usize,
    volume_blocks: u64,
    c: Arc<DeviceCounters>,
    raw: Mutex<Vec<Arc<MemWormDevice>>>,
}

impl TimedPool {
    /// A pool of blank `volume_blocks`-block volumes reporting into `c`.
    pub fn new(block_size: usize, volume_blocks: u64, c: Arc<DeviceCounters>) -> TimedPool {
        TimedPool {
            block_size,
            volume_blocks,
            c,
            raw: Mutex::new(Vec::new()),
        }
    }

    /// The raw media handed out so far, in order.
    pub fn media(&self) -> Vec<Arc<MemWormDevice>> {
        self.raw
            .lock()
            .expect("pool media list: a client thread panicked")
            .clone()
    }
}

impl DevicePool for TimedPool {
    fn next_device(&self) -> Result<SharedDevice> {
        self.c.next_device_calls.fetch_add(1, Ordering::Relaxed);
        let start = span::enabled().then(span::now_ns);
        let _span = span::enter("volume.next_device", 0);
        let dev = Arc::new(MemWormDevice::new(self.block_size, self.volume_blocks));
        self.raw
            .lock()
            .map_err(|_| ClioError::Internal("pool media list poisoned".into()))?
            .push(dev.clone());
        if let Some(start) = start {
            self.c
                .next_device_ns
                .fetch_add(span::now_ns().saturating_sub(start), Ordering::Relaxed);
        }
        Ok(TimedDevice::wrap(dev, self.c.clone()))
    }
}

/// A byte-identical copy of the written prefix of every medium: the crash
/// image a recovery starts from. Reads the raw media directly, so nothing
/// is counted or timed.
pub fn copy_image(media: &[Arc<MemWormDevice>]) -> Result<Vec<Arc<MemWormDevice>>> {
    media
        .iter()
        .map(|src| {
            let dst = MemWormDevice::new(src.block_size(), src.capacity_blocks());
            let end = src
                .query_end()
                .ok_or_else(|| ClioError::Internal("memory device lost its end query".into()))?;
            let mut buf = vec![0u8; src.block_size()];
            for b in 0..end.0 {
                src.read_block(BlockNo(b), &mut buf)?;
                dst.append_block(BlockNo(b), &buf)?;
            }
            Ok(Arc::new(dst))
        })
        .collect()
}

/// The image's devices as the service takes them, each behind a
/// [`TimedDevice`] reporting into `c`.
pub fn timed_handles(image: &[Arc<MemWormDevice>], c: &Arc<DeviceCounters>) -> Vec<SharedDevice> {
    image
        .iter()
        .map(|d| TimedDevice::wrap(d.clone(), c.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A device that keeps `LogDevice`'s default `append_blocks` loop and
    /// can be told to refuse appends.
    struct Plain(MemWormDevice);

    impl LogDevice for Plain {
        fn block_size(&self) -> usize {
            self.0.block_size()
        }
        fn capacity_blocks(&self) -> u64 {
            self.0.capacity_blocks()
        }
        fn query_end(&self) -> Option<BlockNo> {
            self.0.query_end()
        }
        fn is_written(&self, block: BlockNo) -> Result<bool> {
            self.0.is_written(block)
        }
        fn append_block(&self, expected: BlockNo, data: &[u8]) -> Result<()> {
            self.0.append_block(expected, data)
        }
        fn read_block(&self, block: BlockNo, buf: &mut [u8]) -> Result<()> {
            self.0.read_block(block, buf)
        }
        fn invalidate_block(&self, block: BlockNo) -> Result<()> {
            self.0.invalidate_block(block)
        }
    }

    fn blk(byte: u8) -> Vec<u8> {
        vec![byte; 64]
    }

    #[test]
    fn results_pass_through_unchanged() {
        let c = Arc::new(DeviceCounters::default());
        let raw = Arc::new(MemWormDevice::new(64, 4));
        let dev = TimedDevice::wrap(raw.clone(), c.clone());
        assert_eq!(dev.block_size(), 64);
        assert_eq!(dev.capacity_blocks(), 4);
        assert_eq!(dev.query_end(), Some(BlockNo(0)));
        dev.append_block(BlockNo(0), &blk(1)).unwrap();
        // Not at the append point: the device's own error, untouched.
        let direct = raw.append_block(BlockNo(3), &blk(2)).unwrap_err();
        let through = dev.append_block(BlockNo(3), &blk(2)).unwrap_err();
        assert!(matches!(through, ClioError::NotAppendOnly { .. }));
        assert_eq!(format!("{through:?}"), format!("{direct:?}"));
        let mut buf = blk(0);
        dev.read_block(BlockNo(0), &mut buf).unwrap();
        assert_eq!(buf, blk(1));
        assert!(dev.read_block(BlockNo(2), &mut buf).is_err());
        assert!(dev.is_written(BlockNo(0)).unwrap());
        assert!(!dev.is_written(BlockNo(1)).unwrap());
        assert!(matches!(
            dev.rewrite_tail(BlockNo(0), &blk(3)),
            Err(ClioError::Unsupported(_))
        ));
        assert!(!dev.supports_tail_rewrite());
        dev.sync().unwrap();
        dev.invalidate_block(BlockNo(0)).unwrap();
        let s = c.snapshot();
        // append ok + append refused + rewrite refused + invalidate.
        assert_eq!(s.write_ops, 4);
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.probe_ops, 3);
        assert_eq!(s.sync_ops, 1);
        assert_eq!(s.failed_ops, 3);
    }

    #[test]
    fn a_vectored_batch_is_one_write_op_even_over_the_default_loop() {
        for native in [true, false] {
            let c = Arc::new(DeviceCounters::default());
            let inner: SharedDevice = if native {
                Arc::new(MemWormDevice::new(64, 8))
            } else {
                Arc::new(Plain(MemWormDevice::new(64, 8)))
            };
            let dev = TimedDevice::wrap(inner.clone(), c.clone());
            let (a, b, d) = (blk(1), blk(2), blk(3));
            dev.append_blocks(BlockNo(0), &[&a, &b, &d]).unwrap();
            let s = c.snapshot();
            assert_eq!((s.write_ops, s.blocks_written), (1, 3), "native={native}");
            assert_eq!(inner.query_end(), Some(BlockNo(3)));
            let mut buf = blk(0);
            inner.read_block(BlockNo(2), &mut buf).unwrap();
            assert_eq!(buf, d);
            // A batch at the wrong place fails as the device says, counted.
            assert!(matches!(
                dev.append_blocks(BlockNo(7), &[&a]),
                Err(ClioError::NotAppendOnly { .. })
            ));
            assert_eq!(c.snapshot().failed_ops, 1);
        }
    }

    #[test]
    fn the_pool_keeps_the_raw_media_and_copies_are_byte_identical() {
        let c = Arc::new(DeviceCounters::default());
        let pool = TimedPool::new(64, 8, c.clone());
        let d0 = pool.next_device().unwrap();
        let d1 = pool.next_device().unwrap();
        d0.append_block(BlockNo(0), &blk(7)).unwrap();
        d0.append_block(BlockNo(1), &blk(8)).unwrap();
        d1.append_block(BlockNo(0), &blk(9)).unwrap();
        d0.invalidate_block(BlockNo(1)).unwrap();
        let before = c.snapshot();
        let image = copy_image(&pool.media()).unwrap();
        assert_eq!(c.snapshot(), before, "copying is not counted");
        assert_eq!(before.next_device_calls, 2);
        assert_eq!(image.len(), 2);
        for (src, dst) in pool.media().iter().zip(&image) {
            assert_eq!(src.query_end(), dst.query_end());
            let (mut a, mut b) = (blk(0), blk(0));
            for i in 0..src.query_end().unwrap().0 {
                src.read_block(BlockNo(i), &mut a).unwrap();
                dst.read_block(BlockNo(i), &mut b).unwrap();
                assert_eq!(a, b);
            }
        }
        // The copy is independent of the original.
        image[1].append_block(BlockNo(1), &blk(1)).unwrap();
        assert_eq!(pool.media()[1].query_end(), Some(BlockNo(1)));
    }
}
