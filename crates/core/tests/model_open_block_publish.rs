//! Model check: the shared open block, appender vs. materialising readers.
//!
//! A buffered append pushes into a [`SharedOpenBlock`] and publishes
//! nothing; a reader that needs the block takes a reference to the builder
//! under the block's leaf mutex, finishes the CRC-carrying image outside
//! it, and installs it unless the block moved on. The model drives the
//! real object — one appender pushing and then sealing (publishing a view
//! whose queue holds the final image), two readers materialising from a
//! pinned view — and asserts, on every schedule: a reader never observes a
//! torn entry, the image at count *n* is byte-identical to `finish()` of
//! the first *n* pushes, a push that returned is visible to every later
//! read, a pinned view's open block only grows, and a view pinned before
//! the seal reads the very image the queue holds.

use std::sync::Arc;

use clio_core::service::SharedOpenBlock;
use clio_format::{BlockBuilder, BlockView, EntryForm, EntryHeader, ParsedBlock, PushOutcome};
use clio_testkit::check::{schedule_target, spawn, Checker};
use clio_testkit::sync::atomic::{AtomicU64, Ordering};
use clio_testkit::sync::ArcCell;
use clio_types::{LogFileId, Timestamp};

const BLOCK_SIZE: usize = 128;
const PUSHES: u16 = 2;

fn builder() -> BlockBuilder {
    BlockBuilder::new(BLOCK_SIZE, Timestamp(7))
}

fn header() -> EntryHeader {
    EntryHeader::new(LogFileId(8), EntryForm::Minimal, None, None)
}

/// Every byte of entry `i` is `i + 1`, so a torn entry shows in the bytes.
fn payload(i: u16) -> [u8; 9] {
    [i as u8 + 1; 9]
}

/// The eager image: `finish()` of the first `n` pushes.
fn reference(n: u16) -> Vec<u8> {
    let mut b = builder();
    for i in 0..n {
        assert_eq!(b.push(&header(), &payload(i)), PushOutcome::Written(i));
    }
    b.finish()
}

/// What readers pin: the open block, and the sealed queue (here at most
/// the one image the appender's seal put there).
struct View {
    open: Arc<SharedOpenBlock>,
    queued: Option<ParsedBlock>,
}

fn appender(view: &ArcCell<View>, pushed: &AtomicU64) {
    let blk = view.get().open.clone();
    for i in 0..PUSHES {
        assert_eq!(blk.push(&header(), &payload(i)), PushOutcome::Written(i));
        pushed.store(u64::from(i) + 1, Ordering::Release);
    }
    // Seal: the final image goes to the queue and stays cached in the
    // block; the republished view has a fresh open block.
    let sealed = blk.image();
    assert_eq!(**sealed.image(), reference(PUSHES));
    view.set(Arc::new(View {
        open: Arc::new(SharedOpenBlock::new(builder())),
        queued: Some(sealed),
    }));
}

fn reader(view: &ArcCell<View>, pushed: &AtomicU64) {
    let pinned = view.get();
    if pinned.queued.is_some() {
        // Pinned after the seal: the sealed block is served from the queue.
        return;
    }
    let mut last = 0u16;
    for _ in 0..2 {
        let floor = pushed.load(Ordering::Acquire);
        let img = pinned.open.image();
        let n = BlockView::parse(img.image())
            .expect("a materialised image carries a valid CRC")
            .count();
        assert!(u64::from(n) >= floor, "a returned push is invisible");
        assert!(n >= last, "a pinned open block shrank");
        assert_eq!(
            **img.image(),
            reference(n),
            "torn or reordered image at count {n}"
        );
        last = n;
    }
    if let Some(sealed) = &view.get().queued {
        assert!(
            Arc::ptr_eq(pinned.open.image().image(), sealed.image()),
            "a view pinned before the seal reads another image than the queue's"
        );
    }
}

#[test]
fn open_block_pushes_are_atomic_and_the_sealed_image_is_shared() {
    let r = Checker::new("open-block-publish").check(|| {
        let view = Arc::new(ArcCell::new(Arc::new(View {
            open: Arc::new(SharedOpenBlock::new(builder())),
            queued: None,
        })));
        let pushed = Arc::new(AtomicU64::new(0));
        let (v1, p1) = (view.clone(), pushed.clone());
        let (v2, p2) = (view.clone(), pushed.clone());
        let (v3, p3) = (view.clone(), pushed.clone());
        let a = spawn(move || appender(&v1, &p1));
        let r1 = spawn(move || reader(&v2, &p2));
        let r2 = spawn(move || reader(&v3, &p3));
        a.join().expect("appender");
        r1.join().expect("reader 1");
        r2.join().expect("reader 2");
        let end = view.get();
        assert_eq!(
            **end.queued.as_ref().expect("the seal was published").image(),
            reference(PUSHES)
        );
        assert_eq!(**end.open.image().image(), reference(0));
    });
    println!("model open-block-publish: {r}");
    assert!(r.dfs_complete || r.distinct >= schedule_target(), "{r}");
}
