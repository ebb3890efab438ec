//! Model check: the trace ring's per-thread buffers.
//!
//! A thread's first span registers it — it takes a buffer from the
//! ring's list, adopting one whose thread has exited, and a block of span
//! ids from the ring's counter — and every span after that only locks
//! the thread's own buffer. A snapshot locks the list and then each
//! buffer in turn. With two recorders registering, claiming ids and
//! recording beside a snapshot, and a third recorder that starts after
//! both have exited, the checker explores the interleavings of the real
//! [`TraceRing`] on a one- and a two-span buffer. (When a thread has
//! exited is up to the operating system, not the schedule, so the first
//! two stay alive until both have recorded, and the third starts after
//! both are joined.)

use std::collections::BTreeMap;
use std::sync::Arc;

use clio_obs::{AttrValue, Span, TraceRing};
use clio_testkit::check::{schedule_target, spawn, Checker};
use clio_testkit::sync::{Condvar, Mutex};

/// Spans each of the first two recorders records.
const SPANS: u64 = 2;
/// Spans the late recorder records.
const LATE: u64 = 1;

/// Records `count` spans as recorder `t`, each tagged with its target
/// `t` and its position `i`.
fn record(ring: &TraceRing, t: u64, count: u64) {
    for i in 0..count {
        let mut span = ring.span("read");
        span.set_target(t);
        span.attr("i", i);
    }
}

/// Each recorder's `(seq, i)` pairs as `snap` shows them, checked to be
/// in record order, nothing torn or repeated: both numbers consecutive.
fn per_recorder(snap: &[Span]) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut out: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in snap {
        let i = match s.attrs[..] {
            [("i", AttrValue::U64(i))] => i,
            _ => panic!("torn span {s:?}"),
        };
        let t = s.target.expect("a recorder's span");
        out.entry(t).or_default().push((s.seq, i));
    }
    for (t, spans) in &out {
        for pair in spans.windows(2) {
            assert_eq!(pair[1], (pair[0].0 + 1, pair[0].1 + 1), "recorder {t}");
        }
    }
    out
}

/// The `(seq, i)` pairs that survive of a recorder whose records took
/// numbers `first..last` in a buffer of `capacity` that `total` records
/// went into.
fn survivors(first: u64, last: u64, total: u64, capacity: u64) -> Vec<(u64, u64)> {
    (total.saturating_sub(capacity).max(first)..last)
        .map(|seq| (seq, seq - first))
        .collect()
}

fn check_ring(name: &'static str, capacity: u64) {
    let r = Checker::new(name).check(move || {
        let ring = Arc::new(TraceRing::new(capacity as usize));
        // The two recorders stay alive until both have recorded, so each
        // keeps a buffer of its own: `(recorded, released)`.
        let gate = Arc::new((Mutex::new((0u32, false)), Condvar::new()));
        let recorders: Vec<_> = (0..2)
            .map(|t| {
                let (ring, gate) = (ring.clone(), gate.clone());
                spawn(move || {
                    record(&ring, t, SPANS);
                    let (m, cv) = &*gate;
                    m.lock().0 += 1;
                    cv.notify_all();
                    drop(cv.wait_while(m.lock(), |(_, released)| !*released));
                })
            })
            .collect();
        // A snapshot taken while they run holds at most a buffer's worth
        // of each, in record order.
        for spans in per_recorder(&ring.snapshot()).values() {
            assert!(spans.len() as u64 <= capacity);
        }
        {
            let (m, cv) = &*gate;
            let mut state = cv.wait_while(m.lock(), |(recorded, _)| *recorded < 2);
            state.1 = true;
            drop(state);
            cv.notify_all();
        }
        for r in recorders {
            r.join().expect("recorder");
        }
        // Both have exited: the late recorder takes over one of their
        // buffers, numbering on from its survivors and overwriting only
        // the oldest of them; the other buffer is untouched.
        let late = ring.clone();
        spawn(move || record(&late, 2, LATE))
            .join()
            .expect("late recorder");
        assert_eq!(ring.total_recorded(), 2 * SPANS + LATE);
        let got = per_recorder(&ring.snapshot());
        let held = |t: u64| got.get(&t).cloned().unwrap_or_default();
        let (kept, handed) = if held(0).len() >= held(1).len() {
            (0, 1)
        } else {
            (1, 0)
        };
        let total = SPANS + LATE;
        assert_eq!(held(kept), survivors(0, SPANS, SPANS, capacity));
        assert_eq!(held(handed), survivors(0, SPANS, total, capacity));
        assert_eq!(held(2), survivors(SPANS, total, total, capacity));
    });
    println!("model {name}: {r}");
    assert!(r.dfs_complete || r.distinct >= schedule_target(), "{r}");
}

#[test]
fn an_exited_recorders_buffer_passes_on_intact() {
    check_ring("trace-buffers-1-span", 1);
    check_ring("trace-buffers-2-spans", 2);
}
