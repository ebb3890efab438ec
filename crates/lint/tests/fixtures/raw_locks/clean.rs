//! Fixture: the allowed std::sync surface plus the instrumented locks.
//! A comment saying std::sync::Mutex is not a lock.
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

use clio_testkit::sync::{Condvar, Mutex};

fn f() {
    let _ = (
        Arc::new(AtomicU64::new(0)),
        OnceLock::<u32>::new(),
        Mutex::new(0),
        Condvar::new(),
    );
    let s = "std::sync::RwLock in a string";
    let _ = s;
}
