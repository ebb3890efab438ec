//! Fixture: direct host-clock reads and a host sleep in product code.
use std::time::{Duration, Instant, SystemTime};

fn f() {
    let t = std::time::Instant::now();
    let s = SystemTime::now();
    let _ = (t, s, Instant::now());
    std::thread::sleep(Duration::from_millis(1));
}
