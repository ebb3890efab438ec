//! A counting `#[global_allocator]` for the traced run.
//!
//! Counts are per thread and only taken while that thread has counting
//! switched on, so an op's allocations are those made on the calling
//! thread between the harness's two reads of [`counts`] — another client
//! thread's work never lands in them, and the untraced run pays one
//! thread-local flag test per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator the `clio-perf` binary installs.
pub struct CountingAlloc;

fn note(bytes: usize) {
    // `try_with`: an allocation made while the thread's locals are being
    // torn down is simply not counted.
    let _ = ON.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counting
// touches only const-initialised thread-locals of `Cell<_>` type, which
// never allocate and have no destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded; the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded; `ptr` and `layout` come from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` was allocated by `System` through us.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for the calling thread, returning the
/// previous setting.
pub fn set_counting(on: bool) -> bool {
    ON.with(|c| c.replace(on))
}

/// Runs `f` with counting off on this thread (the harness's own
/// bookkeeping inside a measured op), restoring the previous setting.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = set_counting(false);
    let r = f();
    set_counting(was);
    r
}

/// `(allocations, bytes)` counted on this thread so far.
pub fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
