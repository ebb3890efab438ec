//! Fixture: the instrumented atomics, the rest of `std::sync`, and
//! things that only look like the banned path. A comment saying
//! std::sync::atomic::AtomicU64 is not an atomic.

use std::sync::{Arc, OnceLock};

use clio_testkit::sync::atomic::{AtomicI64, Ordering};

fn g(a: &AtomicI64) -> i64 {
    let s = "std::sync::atomic in a string";
    let _ = (s, Arc::new(OnceLock::<u32>::new()));
    a.load(Ordering::Acquire)
}
