//! Model check: the trace ring's slot-claim protocol.
//!
//! A recorder claims a sequence number with one `fetch_add`, then locks
//! only slot `seq % capacity` and stores its span there. Between the two
//! steps it can be descheduled for as long as the scheduler likes — a
//! whole lap of the ring, so that a *newer* record of the same slot gets
//! there first. The late recorder must then lose: overwriting would put
//! an old span where the newest belongs and make a snapshot go backwards.
//! With three recorders on a one- and a two-slot ring the checker walks
//! every such interleaving of the real [`TraceRing`].

use std::sync::Arc;

use clio_obs::{Attrs, Span, TraceRing};
use clio_testkit::check::{schedule_target, spawn, Checker};

const RECORDERS: u64 = 3;

fn span(id: u64) -> Span {
    Span {
        seq: 0,
        trace: id,
        id,
        parent: None,
        name: "read",
        target: None,
        start_us: 0,
        dur_us: 0,
        outcome: "ok",
        attrs: Attrs::new(),
    }
}

fn check_ring(name: &'static str, capacity: u64) {
    let r = Checker::new(name).check(move || {
        let ring = Arc::new(TraceRing::new(capacity as usize));
        let recorders: Vec<_> = (0..RECORDERS)
            .map(|id| {
                let ring = ring.clone();
                spawn(move || ring.record_span(span(id)))
            })
            .collect();
        // A snapshot taken while they run never goes backwards.
        let snap = ring.snapshot();
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        for r in recorders {
            r.join().expect("recorder");
        }
        // Quiescent: exactly the newest `capacity` records survive,
        // including when the recorder holding the newest number of a slot
        // stored first and a lapped one came after.
        assert_eq!(ring.total_recorded(), RECORDERS);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|s| s.seq).collect();
        let want: Vec<u64> = (RECORDERS.saturating_sub(capacity)..RECORDERS).collect();
        assert_eq!(seqs, want, "capacity {capacity}");
    });
    println!("model {name}: {r}");
    assert!(r.dfs_complete || r.distinct >= schedule_target(), "{r}");
}

#[test]
fn lapped_recorder_never_clobbers_a_newer_span() {
    check_ring("trace-ring-1-slot", 1);
    check_ring("trace-ring-2-slots", 2);
}
