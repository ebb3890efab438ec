//! Fixture: the ways library code can reach `std::sync::atomic`. Four
//! findings: the plain import, the module import, the grouped import and
//! the inline-qualified path. The test module is not library code.

use std::sync::atomic::{AtomicU64, Ordering as Order};
use std::sync::atomic;
use std::sync::{atomic::AtomicUsize, Arc};

static HITS: AtomicU64 = AtomicU64::new(0);

fn f(flag: &std::sync::atomic::AtomicBool) -> u64 {
    let _ = (flag, Arc::new(AtomicUsize::new(0)));
    atomic::fence(Order::SeqCst);
    HITS.load(Order::Relaxed)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;

    fn t() {
        let _ = AtomicU32::new(0);
    }
}
