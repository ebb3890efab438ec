//! `LatencyDevice` is the same device as the one it wraps, whichever way
//! it spends its time: its vectored write conforms to a loop of single
//! appends, and a single append to a one-block batch, under a virtual
//! clock and paced by the host clock alike (`clio_testkit::devcheck`).

use std::sync::Arc;

use clio_costmodel::{CostModel, LatencyDevice};
use clio_device::traits::locate_end;
use clio_device::{MemWormDevice, SharedDevice};
use clio_testkit::devcheck::{
    check_batch_append_conformance, check_single_is_one_block_batch, BatchDevice,
};
use clio_types::{BlockNo, ManualClock, Timestamp};

const BLOCK: usize = 32;
const CAPACITY: u64 = 64;
/// Few enough blocks that a check can fill the device to `VolumeFull`.
const SMALL: u64 = 12;

/// Adapts a `LogDevice` to the harness's closure interface.
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

/// Fresh latency devices over `capacity` blocks of memory: on a virtual
/// clock with the paper's costs, or on the host clock with costs of a few
/// microseconds, so the checks' many accesses stay quick.
fn devices(capacity: u64) -> [Box<dyn Fn() -> BatchDevice>; 2] {
    let on_clock = move || {
        let clock = Arc::new(ManualClock::starting_at(Timestamp::ZERO));
        let inner = Arc::new(MemWormDevice::new(BLOCK, capacity));
        adapt(Arc::new(LatencyDevice::new(
            inner,
            CostModel::default(),
            Some(clock),
        )))
    };
    let quick = CostModel {
        optical_seek_us: 3,
        optical_transfer_us: 1,
        ..CostModel::default()
    };
    let on_host = move || {
        let inner = Arc::new(MemWormDevice::new(BLOCK, capacity));
        adapt(Arc::new(LatencyDevice::new(inner, quick, None)))
    };
    [Box::new(on_clock), Box::new(on_host)]
}

#[test]
fn latency_device_batches_conform_at_both_paces() {
    for mk in devices(CAPACITY) {
        check_batch_append_conformance(BLOCK, mk);
    }
}

#[test]
fn latency_device_single_is_a_one_block_batch_at_both_paces() {
    for mk in devices(SMALL) {
        check_single_is_one_block_batch(BLOCK, 0, SMALL, mk);
    }
}
