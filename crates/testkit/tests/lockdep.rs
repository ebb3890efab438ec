//! Lock-order validator behavior with tracking force-enabled.
//!
//! Everything here runs with lockdep on (the force-enable is sticky and
//! process-wide, which is also why the disabled-mode checks live in
//! their own integration test binary, `lockdep_disabled.rs`). Each test
//! uses its own named classes so the recorded edges cannot interfere
//! across tests sharing the process-global graph.

use std::sync::Arc;
use std::thread;

use clio_testkit::lockdep;
use clio_testkit::sync::Mutex;

fn enable() {
    lockdep::force_enable();
}

/// Run `f` on a fresh thread and return the panic message it died with.
fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
    // The panic is deliberate; keep the default hook from spamming the
    // test output but restore it for unrelated tests afterwards.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = thread::spawn(f)
        .join()
        .expect_err("the closure should have panicked");
    std::panic::set_hook(prev);
    match err.downcast::<String>() {
        Ok(s) => *s,
        Err(err) => *err
            .downcast::<&'static str>()
            .map(|s| Box::new(s.to_string()))
            .expect("panic payload should be a string"),
    }
}

#[test]
fn inversion_across_threads_is_detected_with_both_sites() {
    enable();
    let a = Arc::new(Mutex::with_class(0u32, "lockdep.test.inv_a"));
    let b = Arc::new(Mutex::with_class(0u32, "lockdep.test.inv_b"));

    // Thread 1 records the ordering A -> B and exits cleanly.
    {
        let (a, b) = (a.clone(), b.clone());
        thread::spawn(move || {
            let _ga = a.lock();
            let _gb = b.lock();
        })
        .join()
        .unwrap();
    }

    // Thread 2 acquires B -> A: no deadlock in this schedule (thread 1
    // is long gone), but the inversion must still be reported.
    let msg = panic_message(move || {
        let _gb = b.lock();
        let _ga = a.lock();
    });

    assert!(msg.contains("lock-order inversion"), "message: {msg}");
    assert!(msg.contains("lockdep.test.inv_a"), "message: {msg}");
    assert!(msg.contains("lockdep.test.inv_b"), "message: {msg}");
    // Both acquisition sites: the prior A -> B edge and the current
    // B -> A acquisition all happened in this file.
    let mentions = msg.matches("tests/lockdep.rs").count();
    assert!(mentions >= 2, "want both acquisition sites, got: {msg}");
    assert!(msg.contains("backtrace"), "message: {msg}");
}

#[test]
fn consistent_ordering_passes_clean() {
    enable();
    let a = Arc::new(Mutex::with_class(0u32, "lockdep.test.ord_a"));
    let b = Arc::new(Mutex::with_class(0u32, "lockdep.test.ord_b"));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let (a, b) = (a.clone(), b.clone());
        handles.push(thread::spawn(move || {
            for _ in 0..100 {
                let mut ga = a.lock();
                let mut gb = b.lock();
                *ga += 1;
                *gb += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*a.lock(), 400);
}

#[test]
fn three_lock_cycle_is_detected_through_the_graph() {
    enable();
    let a = Arc::new(Mutex::with_class(0u32, "lockdep.test.tri_a"));
    let b = Arc::new(Mutex::with_class(0u32, "lockdep.test.tri_b"));
    let c = Arc::new(Mutex::with_class(0u32, "lockdep.test.tri_c"));

    // Record A -> B and B -> C on separate threads.
    {
        let (a2, b2) = (a.clone(), b.clone());
        thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        })
        .join()
        .unwrap();
        let (b2, c2) = (b.clone(), c.clone());
        thread::spawn(move || {
            let _gb = b2.lock();
            let _gc = c2.lock();
        })
        .join()
        .unwrap();
    }

    // C -> A closes the cycle transitively even though no thread ever
    // held C and B together.
    let msg = panic_message(move || {
        let _gc = c.lock();
        let _ga = a.lock();
    });
    assert!(msg.contains("lock-order inversion"), "message: {msg}");
    assert!(msg.contains("lockdep.test.tri_a"), "message: {msg}");
    assert!(msg.contains("lockdep.test.tri_c"), "message: {msg}");
}

#[test]
fn same_class_nesting_is_not_an_inversion() {
    enable();
    // Shard pools create N locks at one creation site — one class. A
    // thread touching two shards in either order must not be flagged.
    let shards: Vec<Mutex<u32>> = (0..4).map(Mutex::new).collect();
    {
        let _g0 = shards[0].lock();
        let _g1 = shards[1].lock();
    }
    {
        let _g1 = shards[1].lock();
        let _g0 = shards[0].lock();
    }
}

#[test]
fn condvar_wait_releases_held_tracking() {
    enable();
    let gate = Arc::new((
        Mutex::with_class(false, "lockdep.test.cv_gate"),
        clio_testkit::sync::Condvar::new(),
    ));
    let other = Arc::new(Mutex::with_class(0u32, "lockdep.test.cv_other"));

    // Waiter: holds nothing while blocked in wait_while.
    let waiter = {
        let gate = gate.clone();
        thread::spawn(move || {
            let (m, cv) = &*gate;
            let g = cv.wait_while(m.lock(), |ready| !*ready);
            assert!(*g);
            drop(g);
            assert_eq!(lockdep::held_count(), 0);
        })
    };

    // Signaller: takes other -> gate; if wait did not release the
    // gate's tracking this ordering would look like gate -> other
    // versus other -> gate on some schedules. It must stay clean.
    {
        let mut g = other.lock();
        *g += 1;
        let (m, cv) = &*gate;
        *m.lock() = true;
        cv.notify_all();
    }
    waiter.join().unwrap();
}

#[test]
fn assert_no_locks_held_flags_strict_but_not_io_classes() {
    enable();
    // io-marked class: allowed across device writes.
    let io = Mutex::with_class_io(0u32, "lockdep.test.io_ok");
    {
        let _g = io.lock();
        lockdep::assert_no_locks_held("test io write");
    }

    // Strict class: must trip the assert, naming the class.
    let strict = Arc::new(Mutex::with_class(0u32, "lockdep.test.io_strict"));
    let msg = panic_message(move || {
        let _g = strict.lock();
        lockdep::assert_no_locks_held("test io write");
    });
    assert!(msg.contains("non-io lock"), "message: {msg}");
    assert!(msg.contains("lockdep.test.io_strict"), "message: {msg}");
    assert!(msg.contains("test io write"), "message: {msg}");
}
