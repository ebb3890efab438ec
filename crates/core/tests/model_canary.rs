//! Model-checker canaries: prove the checker still *catches* bugs.
//!
//! `check_service.rs` and the `model_*` suites assert that protocols are
//! race-free and lose no wake-up; a checker that silently stopped
//! detecting either would keep them green. These tests pin the detection
//! side: an injected unsynchronized counter must be flagged with both
//! access sites, a condvar wait nobody notifies must be a deadlock, and a
//! failure found by the seeded random walk must replay byte-identically
//! from the printed `CLIO_CHECK_REPLAY=<seed>:<index>` line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use clio_testkit::check::{spawn, Checker, RaceCell};
use clio_testkit::sync::{Condvar, Mutex};

/// Two threads bump a shared counter with no synchronization at all.
fn injected_race() {
    let counter = Arc::new(RaceCell::new(0u64));
    let c2 = counter.clone();
    let t = spawn(move || c2.update(|v| *v += 1));
    counter.update(|v| *v += 1);
    let _ = t.join();
}

fn failure_of(checker: Checker) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| checker.check(injected_race)))
        .expect_err("the injected race must be detected");
    *err.downcast::<String>()
        .expect("failure messages are strings")
}

#[test]
fn injected_race_is_detected_with_both_sites() {
    let msg = failure_of(Checker::new("canary"));
    assert!(msg.contains("data race on RaceCell"), "{msg}");
    // Both conflicting access sites, in this file, plus the cell's
    // creation site.
    assert!(msg.matches("model_canary.rs:").count() >= 3, "{msg}");
    assert!(msg.contains("by thread t0"), "{msg}");
    assert!(msg.contains("by thread t1"), "{msg}");
    assert!(msg.contains("no happens-before edge"), "{msg}");
}

#[test]
fn random_walk_failures_replay_byte_identically() {
    // Random walk only, so the failure carries a seed:index replay line.
    let first = failure_of(Checker::new("canary").dfs_budget(0).random_schedules(32));
    let spec = first
        .split("CLIO_CHECK_REPLAY=")
        .nth(1)
        .expect("failure carries a replay line")
        .split_whitespace()
        .next()
        .expect("replay spec is non-empty");
    let (seed, index) = spec.split_once(':').expect("spec is seed:index");
    let again = failure_of(Checker::new("canary").replay(
        seed.parse().expect("seed parses"),
        index.parse().expect("index parses"),
    ));
    assert_eq!(first, again, "replay must be byte-identical");
}

#[test]
fn a_wait_nobody_notifies_is_a_deadlock() {
    // The setter flips the flag and never notifies: a waiter that read it
    // false first sleeps for good.
    let err = catch_unwind(AssertUnwindSafe(|| {
        Checker::new("lost-wakeup").check(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = pair.clone();
            let t = spawn(move || {
                let mut g = p2.0.lock();
                while !*g {
                    g = p2.1.wait(g);
                }
            });
            *pair.0.lock() = true;
            let _ = t.join();
        })
    }));
    let msg = *err
        .expect_err("the lost wake-up must be found")
        .downcast::<String>()
        .unwrap();
    assert!(
        msg.contains("deadlock") && msg.contains("waiting on a Condvar"),
        "{msg}"
    );
}
