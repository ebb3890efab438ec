//! Model check: the leader/follower group-commit gate.
//!
//! A 3-appender model of `Shard::stage_and_commit`/`commit_wait`. An
//! appender announces itself, stages under the state lock, then goes to
//! the gate: it polls the atomic `committed`/`committing` pair for a
//! bounded budget while a commit is in flight, returns without the gate
//! mutex once covered, parks (counted in `waiters`) when the budget runs
//! out, or — finding no commit in flight — claims `committing` under the
//! mutex and leads. The leader waits (bounded) for announced arrivals,
//! "writes the device" — plain [`RaceCell`] writes taken outside the state
//! lock, so the checker proves the gate alone is what orders them —
//! publishes `committed` with `Release`, and notifies only if a follower
//! is parked. The checked invariants:
//!
//! * released ⇒ durable: a follower released by the gate, through the
//!   mutex or by an `Acquire` load alone, reads its own entry's slot, and
//!   the only edge that can order that read after the leader's write is
//!   the gate's (a `Relaxed` publish would be reported as a race);
//! * the device write is exclusive: two concurrent leaders race on the
//!   device end;
//! * liveness: all three appenders return on every schedule — a lost
//!   wake-up leaves a follower parked for good, which the checker reports
//!   as a deadlock. The canary below proves it would: with the `waiters`
//!   guard mutated to "never notify", the checker must find that schedule.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use clio_testkit::check::{schedule_target, spawn, Checker, RaceCell};
use clio_testkit::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use clio_testkit::sync::{Condvar, Mutex};

const APPENDERS: u64 = 3;

/// The model's `GATE_POLL_BUDGET`: small, so both "released while polling"
/// and "budget ran out, park" are a few scheduling points away.
const POLL_BUDGET: u32 = 2;

struct State {
    next_seq: u64,
    staged: u64,
}

struct Model {
    state: Mutex<State>,
    /// The gate mutex; the value is `CommitClock::waiters`.
    gate: Mutex<usize>,
    cv: Condvar,
    committed: AtomicU64,
    committing: AtomicBool,
    /// Forced appends announced but not yet staged (a hint: `Relaxed`).
    arriving: AtomicU64,
    /// The device end: everything up to it is written.
    device_end: RaceCell<u64>,
    /// One slot per entry, written by the commit that covers it.
    on_device: Vec<RaceCell<bool>>,
}

fn model() -> Arc<Model> {
    Arc::new(Model {
        state: Mutex::new(State {
            next_seq: 0,
            staged: 0,
        }),
        gate: Mutex::new(0),
        cv: Condvar::new(),
        committed: AtomicU64::new(0),
        committing: AtomicBool::new(false),
        arriving: AtomicU64::new(0),
        device_end: RaceCell::new(0),
        on_device: (0..=APPENDERS).map(|_| RaceCell::new(false)).collect(),
    })
}

/// What the leader does about parked followers once its commit is done.
#[derive(Clone, Copy)]
enum Wake {
    /// The protocol: `notify_all` unless `waiters` reads zero.
    IfWaiters,
    /// The mutant: the guard never lets the notify through.
    Never,
}

fn append(m: &Model, wake: Wake) {
    m.arriving.fetch_add(1, Ordering::Relaxed);
    let my_seq = {
        let mut st = m.state.lock();
        st.next_seq += 1;
        st.staged = st.next_seq;
        m.arriving.fetch_sub(1, Ordering::Relaxed);
        st.next_seq
    };
    let covered = || m.committed.load(Ordering::Acquire) >= my_seq;
    loop {
        let mut polls = 0;
        while polls < POLL_BUDGET && !covered() && m.committing.load(Ordering::Acquire) {
            polls += 1;
        }
        if covered() {
            break;
        }
        let mut waiters = m.gate.lock();
        if covered() {
            break;
        }
        if m.committing.load(Ordering::Acquire) {
            *waiters += 1;
            waiters = m.cv.wait(waiters);
            *waiters -= 1;
            continue;
        }
        // Lead everything staged by the time the arrivals are in.
        m.committing.store(true, Ordering::Release);
        drop(waiters);
        for _ in 0..POLL_BUDGET {
            if m.arriving.load(Ordering::Relaxed) == 0 {
                break;
            }
        }
        let batch_end = m.state.lock().staged;
        for seq in m.device_end.read() + 1..=batch_end {
            m.on_device[seq as usize].write(true);
        }
        m.device_end.write(batch_end);
        let waiters = m.gate.lock();
        m.committed.fetch_max(batch_end, Ordering::Release);
        m.committing.store(false, Ordering::Release);
        let parked = *waiters > 0;
        drop(waiters);
        if parked && matches!(wake, Wake::IfWaiters) {
            m.cv.notify_all();
        }
        assert!(batch_end >= my_seq, "a leader's batch covers its own entry");
        break;
    }
    // Acknowledged: the entry must be on the device, and the gate must be
    // what says so.
    assert!(
        m.on_device[my_seq as usize].read(),
        "committed but not durable"
    );
}

fn three_appenders(wake: Wake) {
    let m = model();
    let (m1, m2) = (m.clone(), m.clone());
    let t1 = spawn(move || append(&m1, wake));
    let t2 = spawn(move || append(&m2, wake));
    append(&m, wake);
    t1.join().expect("appender 1");
    t2.join().expect("appender 2");
    assert_eq!(m.device_end.read(), APPENDERS, "all three appends durable");
    assert_eq!(*m.gate.lock(), 0, "nobody left parked");
}

#[test]
fn commit_gate_orders_device_writes() {
    let r = Checker::new("commit-gate").check(|| three_appenders(Wake::IfWaiters));
    println!("model commit-gate: {r}");
    assert!(r.dfs_complete || r.distinct >= schedule_target(), "{r}");
}

#[test]
fn a_leader_that_never_notifies_loses_a_wakeup() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        Checker::new("commit-gate-canary").check(|| three_appenders(Wake::Never))
    }))
    .expect_err("the lost wake-up must be found");
    let msg = *err
        .downcast::<String>()
        .expect("failure messages are strings");
    assert!(msg.contains("deadlock"), "{msg}");
}
