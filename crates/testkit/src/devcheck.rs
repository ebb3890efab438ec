//! Conformance checking for device appends.
//!
//! `LogDevice` has two write entry points, `append_block` and the vectored
//! `append_blocks`, and the group-commit write path depends on their being
//! one operation: a batch must leave *exactly* the bytes a loop of single
//! appends would have left. On the base devices (memory and host file) and
//! on the mirror and the RAM tail that holds by construction — the vectored
//! write is the only write body, and `append_block` is its one-block call.
//! Two wrappers keep a body for each, because telling the two apart is
//! their job: `FaultyDevice` decides a fate per block inside a batch (and
//! tears batches), `InstrumentedDevice` counts single writes and batches
//! in different series. The trait's default `append_blocks` (a loop of
//! `append_block`) is the reference all of them are compared with.
//!
//! Two checks, both run by the device crate's conformance test on every
//! implementation: batches of every shape against the loop
//! ([`check_batch_append_conformance`]), and single appends against
//! one-block batches, errors included ([`check_single_is_one_block_batch`]).
//!
//! This module holds the device-agnostic harness. `clio-testkit` sits
//! below `clio-device` in the dependency order, so the device under test
//! is reached through closures rather than the `LogDevice` trait.

/// A vectored-append closure: `(expected_block_no, block_images)`.
pub type BatchFn = Box<dyn FnMut(u64, &[Vec<u8>]) -> Result<(), String>>;
/// A single-append closure: `(expected_block_no, block_image)`.
pub type AppendFn = Box<dyn FnMut(u64, &[u8]) -> Result<(), String>>;

/// A device under conformance test, abstracted behind closures so the
/// harness does not need the `LogDevice` trait.
///
/// `append_batch` forwards to the implementation's `append_blocks`;
/// `append_one` forwards to plain `append_block`. `read` returns one
/// written block's bytes; `end` the current append point. Errors are
/// stringified: the batch-shape check compares only success or failure,
/// the single-against-batch check the whole message.
pub struct BatchDevice {
    /// Vectored append at the given expected block number.
    pub append_batch: BatchFn,
    /// Single-block append at the given expected block number.
    pub append_one: AppendFn,
    /// Read one written block.
    pub read: Box<dyn Fn(u64) -> Result<Vec<u8>, String>>,
    /// Current append point (written-block count).
    pub end: Box<dyn Fn() -> u64>,
}

/// Deterministic per-block fill so every block in every schedule is
/// distinguishable: byte `j` of block `i` is a mix of both indices.
#[must_use]
pub fn block_image(block_size: usize, i: u64) -> Vec<u8> {
    (0..block_size)
        .map(|j| {
            (i as u8)
                .wrapping_mul(31)
                .wrapping_add(j as u8)
                .wrapping_add(1)
        })
        .collect()
}

/// The batch shapes every schedule is built from: singletons, pairs, a
/// long run, and uneven mixes. Values are batch lengths.
const SCHEDULES: &[&[usize]] = &[
    &[1],
    &[3],
    &[1, 1, 1],
    &[2, 1],
    &[1, 4, 2],
    &[8],
    &[2, 2, 2],
    &[5, 1, 3],
];

/// Drives one freshly-made device per (schedule, mode) through the append
/// schedules and asserts the vectored implementation is byte-for-byte
/// equivalent to a loop of single appends.
///
/// `mk` must return a *fresh, empty* device each call. All batches in the
/// schedules fit comfortably in 32 blocks; devices should be created with
/// at least that capacity.
///
/// # Panics
///
/// Panics (test-style, with context) on any divergence: block contents,
/// append point, or error behaviour at a wrong append point.
pub fn check_batch_append_conformance(block_size: usize, mk: impl Fn() -> BatchDevice) {
    for (si, schedule) in SCHEDULES.iter().enumerate() {
        let mut vectored = mk();
        let mut looped = mk();
        let mut next = 0u64;
        for &len in *schedule {
            let images: Vec<Vec<u8>> = (0..len as u64)
                .map(|k| block_image(block_size, next + k))
                .collect();
            (vectored.append_batch)(next, &images)
                .unwrap_or_else(|e| panic!("schedule {si}: vectored append at {next} failed: {e}"));
            for (k, img) in images.iter().enumerate() {
                (looped.append_one)(next + k as u64, img).unwrap_or_else(|e| {
                    panic!(
                        "schedule {si}: looped append at {} failed: {e}",
                        next + k as u64
                    )
                });
            }
            next += len as u64;
        }
        assert_eq!(
            (vectored.end)(),
            next,
            "schedule {si}: vectored device append point"
        );
        assert_eq!(
            (looped.end)(),
            next,
            "schedule {si}: looped device append point"
        );
        for b in 0..next {
            let v = (vectored.read)(b)
                .unwrap_or_else(|e| panic!("schedule {si}: vectored read of block {b}: {e}"));
            let l = (looped.read)(b)
                .unwrap_or_else(|e| panic!("schedule {si}: looped read of block {b}: {e}"));
            assert_eq!(v, l, "schedule {si}: block {b} diverges");
            assert_eq!(
                v,
                block_image(block_size, b),
                "schedule {si}: block {b} corrupted"
            );
        }
        // Both reject a batch that is not at the append point, and neither
        // moves the end while doing so.
        let stale = vec![block_image(block_size, 99)];
        assert!(
            (vectored.append_batch)(next + 2, &stale).is_err(),
            "schedule {si}: vectored append past the end must fail"
        );
        assert!(
            (looped.append_one)(next + 2, &stale[0]).is_err(),
            "schedule {si}: looped append past the end must fail"
        );
        assert_eq!(
            (vectored.end)(),
            next,
            "schedule {si}: failed batch moved the end"
        );
        // An empty batch is a universal no-op.
        (vectored.append_batch)(next, &[])
            .unwrap_or_else(|e| panic!("schedule {si}: empty batch must succeed: {e}"));
        assert_eq!(
            (vectored.end)(),
            next,
            "schedule {si}: empty batch moved the end"
        );
    }
}

/// Requires a single append and a one-block batch to be the same
/// operation: two fresh devices from `mk` take the same blocks, one by
/// `append_one` where the other uses a one-block `append_batch` and the
/// other way round at the next block, and must agree on every result —
/// the stringified error too, so the same kind with the same payload — on
/// the append point, and on every byte.
///
/// Appends start at block `first` (above 0 for a device that `mk` hands
/// over with blocks already on it) and go on until `capacity` blocks are
/// written; on the way, and once the device is full, both are offered a
/// block behind the append point and one beyond it.
///
/// # Panics
///
/// Panics (test-style, with context) on any divergence.
pub fn check_single_is_one_block_batch(
    block_size: usize,
    first: u64,
    capacity: u64,
    mk: impl Fn() -> BatchDevice,
) {
    let (mut a, mut b) = (mk(), mk());
    let mut put = |single_on_a: bool, at: u64, img: &[u8]| {
        let batch = [img.to_vec()];
        let (ra, rb) = if single_on_a {
            ((a.append_one)(at, img), (b.append_batch)(at, &batch))
        } else {
            ((a.append_batch)(at, &batch), (b.append_one)(at, img))
        };
        assert_eq!(ra, rb, "block {at}: single and one-block batch disagree");
        assert_eq!((a.end)(), (b.end)(), "block {at}: append points disagree");
        ra
    };
    for at in first..capacity {
        let single_on_a = at % 3 != 1;
        put(single_on_a, at, &block_image(block_size, at))
            .unwrap_or_else(|e| panic!("append at {at} failed on both: {e}"));
        if at % 8 == 3 || at + 1 == capacity {
            let stale = block_image(block_size, 99);
            for wrong in [first, at + 3] {
                assert!(
                    put(!single_on_a, wrong, &stale).is_err(),
                    "append at {wrong} accepted with the append point at {}",
                    at + 1
                );
            }
        }
    }
    assert!(put(true, capacity, &block_image(block_size, 99)).is_err());
    assert_eq!((a.end)(), capacity, "the device did not fill");
    for blk in 0..capacity {
        let (ia, ib) = ((a.read)(blk), (b.read)(blk));
        assert_eq!(ia, ib, "block {blk} diverges");
        if blk >= first {
            assert_eq!(ia, Ok(block_image(block_size, blk)), "block {blk}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use std::sync::Arc;

    /// A minimal in-memory append-only device of 40 blocks used to
    /// self-test the harness (the real devices live above this crate).
    fn toy(batch_bug: bool) -> BatchDevice {
        let blocks: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let (b1, b2, b3) = (blocks.clone(), blocks.clone(), blocks.clone());
        BatchDevice {
            append_batch: Box::new(move |expected, imgs| {
                let mut g = b1.lock();
                if expected != g.len() as u64 {
                    return Err("not append-only".into());
                }
                if g.len() + imgs.len() > 40 {
                    return Err("full".into());
                }
                for img in imgs {
                    let mut img = img.clone();
                    if batch_bug {
                        img[0] ^= 0xFF;
                    }
                    g.push(img);
                }
                Ok(())
            }),
            append_one: Box::new(move |expected, img| {
                let mut g = b2.lock();
                if expected != g.len() as u64 {
                    return Err("not append-only".into());
                }
                if g.len() >= 40 {
                    return Err("full".into());
                }
                g.push(img.to_vec());
                Ok(())
            }),
            read: Box::new(move |b| {
                b3.lock()
                    .get(b as usize)
                    .cloned()
                    .ok_or_else(|| "unwritten".into())
            }),
            end: Box::new(move || blocks.lock().len() as u64),
        }
    }

    #[test]
    fn harness_accepts_a_correct_device() {
        check_batch_append_conformance(32, || toy(false));
    }

    #[test]
    #[should_panic(expected = "diverges")]
    fn harness_catches_a_batch_that_mangles_bytes() {
        check_batch_append_conformance(32, || toy(true));
    }

    #[test]
    fn single_against_batch_accepts_a_correct_device() {
        check_single_is_one_block_batch(32, 0, 40, || toy(false));
    }

    #[test]
    #[should_panic(expected = "diverges")]
    fn single_against_batch_catches_a_batch_that_mangles_bytes() {
        check_single_is_one_block_batch(32, 0, 40, || toy(true));
    }
}
