//! Byte-for-byte conformance of every `append_blocks` implementation with
//! a loop of `append_block`, and of every `append_block` with a one-block
//! `append_blocks`, driven by the shared schedules in
//! `clio_testkit::devcheck`, plus targeted tests for the behaviours that
//! only exist on the vectored path (mid-batch tears, replica catch-up,
//! batch accounting, staged-tail sealing).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clio_device::traits::locate_end;
use clio_device::{
    DeviceStats, FaultPlan, FaultyDevice, FileWormDevice, InstrumentedDevice, LogDevice,
    MemWormDevice, MirroredDevice, RamTailDevice, SharedDevice,
};
use clio_obs::MetricsRegistry;
use clio_testkit::devcheck::{
    block_image, check_batch_append_conformance, check_single_is_one_block_batch, BatchDevice,
};
use clio_types::{BlockNo, ClioError, Result};

const BLOCK: usize = 32;
const CAPACITY: u64 = 64;

/// Adapts any `LogDevice` to the harness's closure interface.
fn adapt(dev: SharedDevice) -> BatchDevice {
    let (d1, d2, d3, d4) = (dev.clone(), dev.clone(), dev.clone(), dev);
    BatchDevice {
        append_batch: Box::new(move |expected, imgs| {
            let refs: Vec<&[u8]> = imgs.iter().map(Vec::as_slice).collect();
            d1.append_blocks(BlockNo(expected), &refs)
                .map_err(|e| e.to_string())
        }),
        append_one: Box::new(move |expected, img| {
            d2.append_block(BlockNo(expected), img)
                .map_err(|e| e.to_string())
        }),
        read: Box::new(move |b| {
            let mut buf = vec![0u8; d3.block_size()];
            d3.read_block(BlockNo(b), &mut buf)
                .map(|()| buf)
                .map_err(|e| e.to_string())
        }),
        end: Box::new(move || locate_end(&*d4).expect("locate end").0 .0),
    }
}

/// A wrapper that deliberately does NOT override `append_blocks`, so the
/// trait's default loop fallback is what the harness exercises.
struct DefaultFallbackOnly(SharedDevice);

impl LogDevice for DefaultFallbackOnly {
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

fn tmp_path() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "clio-batch-conf-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

#[test]
fn default_fallback_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(DefaultFallbackOnly(Arc::new(MemWormDevice::new(
            BLOCK, CAPACITY,
        )))))
    });
}

#[test]
fn mem_device_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(MemWormDevice::new(BLOCK, CAPACITY)))
    });
}

/// Runs `check` with a maker of fresh file devices of `capacity` blocks,
/// then removes the files they were made on.
fn with_file_devices(capacity: u64, check: impl FnOnce(&dyn Fn() -> BatchDevice)) {
    let paths = std::cell::RefCell::new(Vec::new());
    check(&|| {
        let p = tmp_path();
        let dev = FileWormDevice::create(&p, BLOCK, capacity).expect("create device file");
        paths.borrow_mut().push(p);
        adapt(Arc::new(dev))
    });
    for p in paths.into_inner() {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn file_device_conforms() {
    with_file_devices(CAPACITY, |mk| check_batch_append_conformance(BLOCK, mk));
}

#[test]
fn ram_tail_device_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(RamTailDevice::new(Arc::new(MemWormDevice::new(
            BLOCK, CAPACITY,
        )))))
    });
}

#[test]
fn mirror_device_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(MirroredDevice::new(vec![
            Arc::new(MemWormDevice::new(BLOCK, CAPACITY)) as SharedDevice,
            Arc::new(MemWormDevice::new(BLOCK, CAPACITY)) as SharedDevice,
        ])))
    });
}

#[test]
fn fault_device_with_quiet_plan_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(FaultyDevice::new(
            Arc::new(MemWormDevice::new(BLOCK, CAPACITY)),
            FaultPlan::default(),
        )))
    });
}

#[test]
fn instrumented_device_conforms() {
    check_batch_append_conformance(BLOCK, || {
        adapt(Arc::new(InstrumentedDevice::new(
            Arc::new(MemWormDevice::new(BLOCK, CAPACITY)),
            DeviceStats::new(&MetricsRegistry::new()),
        )))
    });
}

/// Few enough blocks that a check can fill the device to `VolumeFull`.
const SMALL: u64 = 12;

fn small_mem() -> Arc<MemWormDevice> {
    Arc::new(MemWormDevice::new(BLOCK, SMALL))
}

#[test]
fn single_is_a_one_block_batch_on_both_media() {
    check_single_is_one_block_batch(BLOCK, 0, SMALL, || adapt(small_mem()));
    with_file_devices(SMALL, |mk| {
        check_single_is_one_block_batch(BLOCK, 0, SMALL, mk);
    });
}

#[test]
fn single_is_a_one_block_batch_on_a_mirror() {
    // Replicas in step, then one replica a block ahead (a previous attempt
    // reached only it), so the first append is a catch-up.
    for ahead in [false, true] {
        check_single_is_one_block_batch(BLOCK, 0, SMALL, || {
            let (a, b) = (small_mem(), small_mem());
            if ahead {
                a.append_block(BlockNo(0), &block_image(BLOCK, 0)).unwrap();
            }
            adapt(Arc::new(MirroredDevice::new(vec![
                a as SharedDevice,
                b as SharedDevice,
            ])))
        });
    }
}

#[test]
fn single_is_a_one_block_batch_on_a_ram_tail() {
    // No tail; a staged tail that the first append seals; a staged tail
    // that the first append goes past, draining it.
    for (staged, first) in [(false, 0), (true, 0), (true, 1)] {
        check_single_is_one_block_batch(BLOCK, first, SMALL, || {
            let dev = RamTailDevice::new(small_mem());
            if staged {
                dev.rewrite_tail(BlockNo(0), &[0x7A; BLOCK]).unwrap();
            }
            adapt(Arc::new(dev))
        });
    }
}

#[test]
fn single_is_a_one_block_batch_through_both_wrappers() {
    check_single_is_one_block_batch(BLOCK, 0, SMALL, || {
        adapt(Arc::new(FaultyDevice::new(
            small_mem(),
            FaultPlan::default(),
        )))
    });
    check_single_is_one_block_batch(BLOCK, 0, SMALL, || {
        adapt(Arc::new(InstrumentedDevice::new(
            small_mem(),
            DeviceStats::new(&MetricsRegistry::new()),
        )))
    });
}

#[test]
fn fault_tear_leaves_exactly_k_blocks() {
    for k in 0..=4usize {
        let dev = FaultyDevice::new(
            Arc::new(MemWormDevice::new(BLOCK, CAPACITY)),
            FaultPlan::default(),
        );
        let images: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i + 1; BLOCK]).collect();
        let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        dev.tear_next_batch_after(k);
        let r = dev.append_blocks(BlockNo(0), &refs);
        if k < images.len() {
            assert!(matches!(r, Err(ClioError::Io(_))), "k={k}: {r:?}");
        } else {
            // The whole batch fits under the tear point: no fault fires.
            r.unwrap_or_else(|e| panic!("k={k}: {e}"));
        }
        let end = dev.query_end().unwrap().0;
        assert_eq!(end, k.min(images.len()) as u64, "k={k}");
        let mut buf = vec![0u8; BLOCK];
        for b in 0..end {
            dev.read_block(BlockNo(b), &mut buf).unwrap();
            assert_eq!(buf, images[b as usize], "k={k}: block {b}");
        }
        // The trigger is one-shot: the next batch goes through untorn.
        let rest: Vec<&[u8]> = images[end as usize..].iter().map(Vec::as_slice).collect();
        dev.append_blocks(BlockNo(end), &rest).unwrap();
        assert_eq!(dev.query_end().unwrap().0, images.len() as u64, "k={k}");
    }
}

#[test]
fn mirror_batch_completes_a_lagging_replica() {
    let a = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    let b = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    // Replica `a` already has the first block of the batch from a previous
    // partially-failed attempt.
    a.append_block(BlockNo(0), &[7u8; BLOCK]).unwrap();
    let m = MirroredDevice::new(vec![a.clone() as SharedDevice, b.clone() as SharedDevice]);
    let images = [vec![7u8; BLOCK], vec![8u8; BLOCK], vec![9u8; BLOCK]];
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    m.append_blocks(BlockNo(0), &refs).unwrap();
    assert_eq!(m.query_end(), Some(BlockNo(3)));
    let mut buf = vec![0u8; BLOCK];
    for (i, img) in images.iter().enumerate() {
        for r in [&a, &b] {
            r.read_block(BlockNo(i as u64), &mut buf).unwrap();
            assert_eq!(&buf, img, "replica copy of block {i}");
        }
    }
}

#[test]
fn mirror_batch_skips_a_replica_that_has_it_all() {
    let a = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    let b = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    let images = [vec![1u8; BLOCK], vec![2u8; BLOCK]];
    for (i, img) in images.iter().enumerate() {
        a.append_block(BlockNo(i as u64), img).unwrap();
    }
    let m = MirroredDevice::new(vec![a as SharedDevice, b.clone() as SharedDevice]);
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    m.append_blocks(BlockNo(0), &refs).unwrap();
    assert_eq!(m.query_end(), Some(BlockNo(2)));
    let mut buf = vec![0u8; BLOCK];
    b.read_block(BlockNo(1), &mut buf).unwrap();
    assert_eq!(buf, images[1]);
}

#[test]
fn instrumented_batches_count_once_per_physical_write() {
    let stats = DeviceStats::new(&MetricsRegistry::new());
    let dev = InstrumentedDevice::new(Arc::new(MemWormDevice::new(BLOCK, CAPACITY)), stats.clone());
    let images: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; BLOCK]).collect();
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    dev.append_blocks(BlockNo(0), &refs).unwrap();
    dev.append_block(BlockNo(5), &[9u8; BLOCK]).unwrap();
    assert_eq!(
        stats.appends.get(),
        6,
        "logical appends: 5 batched + 1 single"
    );
    assert_eq!(stats.batch_appends.get(), 1);
    assert_eq!(stats.append_batch_blocks.sum(), 5);
    assert_eq!(stats.write_ops(), 2, "one batch write + one single write");
    assert_eq!(stats.append_batch_blocks.snapshot().count, 1);
    assert_eq!(stats.append_batch_latency_ns.snapshot().count, 1);
    // An empty batch is a no-op, not a device write.
    dev.append_blocks(BlockNo(6), &[]).unwrap();
    assert_eq!(stats.batch_appends.get(), 1);
    // A failed batch counts one append error and no writes.
    assert!(dev.append_blocks(BlockNo(9), &refs).is_err());
    assert_eq!(stats.append_errors.get(), 1);
    assert_eq!(stats.write_ops(), 2);
}

#[test]
fn ram_tail_batch_seals_the_staged_block() {
    let worm = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    let dev = RamTailDevice::new(worm.clone());
    dev.rewrite_tail(BlockNo(0), &[1u8; BLOCK]).unwrap();
    dev.rewrite_tail(BlockNo(0), &[2u8; BLOCK]).unwrap();
    // The batch's first block is the sealed contents of the staged tail.
    let images = [vec![3u8; BLOCK], vec![4u8; BLOCK]];
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    dev.append_blocks(BlockNo(0), &refs).unwrap();
    assert!(!dev.has_tail(), "tail buffer retired by the sealing batch");
    assert_eq!(worm.query_end(), Some(BlockNo(2)));
    let mut buf = vec![0u8; BLOCK];
    worm.read_block(BlockNo(0), &mut buf).unwrap();
    assert_eq!(buf, images[0], "batch contents supersede the staged tail");
    worm.read_block(BlockNo(1), &mut buf).unwrap();
    assert_eq!(buf, images[1]);
}

#[test]
fn ram_tail_batch_past_a_staged_tail_drains_it_first() {
    let worm = Arc::new(MemWormDevice::new(BLOCK, CAPACITY));
    let dev = RamTailDevice::new(worm.clone());
    dev.rewrite_tail(BlockNo(0), &[1u8; BLOCK]).unwrap();
    let images = [vec![2u8; BLOCK], vec![3u8; BLOCK]];
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    dev.append_blocks(BlockNo(1), &refs).unwrap();
    assert!(!dev.has_tail());
    assert_eq!(worm.query_end(), Some(BlockNo(3)));
    let mut buf = vec![0u8; BLOCK];
    worm.read_block(BlockNo(0), &mut buf).unwrap();
    assert_eq!(buf, vec![1u8; BLOCK], "staged tail drained to the medium");
}
