//! TraceRing integration tests: concurrent record/snapshot safety,
//! wraparound behaviour, and the golden `GET /trace` JSON shape.

use std::sync::Arc;

use clio_obs::{AttrValue, Attrs, Span, TraceRing};

/// Builds a deterministic completed span (the `record_span` path used by
/// golden tests — no clocks involved).
fn fixed_span(
    trace: u64,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_us: u64,
    dur_us: u64,
) -> Span {
    Span {
        seq: 0,
        trace,
        id,
        parent,
        name,
        target: None,
        start_us,
        dur_us,
        outcome: "ok",
        attrs: Attrs::new(),
    }
}

/// Writers hammer the ring from several threads while a reader snapshots
/// and renders concurrently: no lost records, no panics, and every
/// surviving span is intact.
#[test]
fn concurrent_recording_and_snapshotting_is_safe() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 500;
    let ring = Arc::new(TraceRing::new(64));
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let ring = ring.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_WRITER {
                // Alternate the guard path and the prebuilt path.
                if i % 2 == 0 {
                    let mut g = ring.span("append");
                    g.attr("bytes", i as u64);
                    let _child = ring.span("stage");
                } else {
                    ring.record_span(fixed_span(
                        (w * PER_WRITER + i) as u64,
                        (w * PER_WRITER + i) as u64,
                        None,
                        "read",
                        1,
                        1,
                    ));
                }
            }
        }));
    }
    let reader = {
        let ring = ring.clone();
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            while ring.total_recorded() < (WRITERS * PER_WRITER) as u64 / 2 {
                let snap = ring.snapshot();
                assert!(snap.len() <= ring.capacity());
                for s in &snap {
                    assert!(matches!(s.name, "append" | "stage" | "read"));
                }
                let _ = ring.dump();
                let _ = ring.trace_json().encode();
                snapshots += 1;
            }
            snapshots
        })
    };
    for h in handles {
        h.join().expect("writer");
    }
    reader.join().expect("reader");
    // Guard path records two spans per even i, prebuilt one per odd i.
    let expected = (WRITERS * PER_WRITER / 2 * 2 + WRITERS * PER_WRITER / 2) as u64;
    assert_eq!(ring.total_recorded(), expected);
    assert_eq!(ring.len(), 64);
    // Seq numbers in a snapshot are strictly increasing (oldest first).
    let snap = ring.snapshot();
    for pair in snap.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
}

/// A trace larger than the whole ring: the oldest phases fall off, the
/// survivors still group under the trace, and children whose parents were
/// evicted surface as roots instead of disappearing.
#[test]
fn wraparound_keeps_the_newest_spans_and_tolerates_evicted_parents() {
    let ring = TraceRing::new(4);
    {
        let _root = ring.span("append");
        // Each phase records on scope exit; 6 finished phases + the root
        // overflow capacity 4 well before the root itself records.
        for _ in 0..6 {
            ring.span("stage").finish();
        }
    }
    assert_eq!(ring.len(), 4);
    assert_eq!(ring.total_recorded(), 7);
    let trees = ring.traces();
    assert_eq!(trees.len(), 1, "all survivors share the root's trace");
    // The root recorded last, so it survives; the 3 newest phases attach
    // to it (their parent survived), older phases were overwritten.
    let root = &trees[0].roots;
    let span_count: usize = root.iter().map(|n| 1 + n.children.len()).sum();
    assert_eq!(span_count, 4);
    assert!(root.iter().any(|n| n.span.name == "append"));
    let dump = ring.dump();
    assert!(dump.contains("4 span(s) held, 7 recorded, capacity 4"));
}

/// Golden shape for the `/trace` body: deterministic spans in, exact
/// JSON document out. Guards the wire contract scrapers parse.
#[test]
fn trace_json_golden_shape() {
    let ring = TraceRing::new(8);
    let mut root = fixed_span(1, 1, None, "append", 100, 40);
    root.target = Some(3);
    root.attrs.push("bytes", AttrValue::U64(64));
    ring.record_span(root);
    let mut gate = fixed_span(1, 2, Some(1), "commit_gate", 110, 25);
    gate.attrs.push("role", AttrValue::Str("leader"));
    ring.record_span(gate);
    ring.record_span(fixed_span(1, 3, Some(2), "device_write", 120, 10));
    ring.record_span(fixed_span(7, 7, None, "read", 200, 5));

    let got = ring.trace_json().encode();
    let want = concat!(
        "{\"traces\":[",
        "{\"trace\":1,\"spans\":[",
        "{\"id\":1,\"parent\":null,\"name\":\"append\",\"target\":3,",
        "\"start_us\":100,\"dur_us\":40,\"outcome\":\"ok\",",
        "\"attrs\":{\"bytes\":64},",
        "\"children\":[",
        "{\"id\":2,\"parent\":1,\"name\":\"commit_gate\",\"target\":null,",
        "\"start_us\":110,\"dur_us\":25,\"outcome\":\"ok\",",
        "\"attrs\":{\"role\":\"leader\"},",
        "\"children\":[",
        "{\"id\":3,\"parent\":2,\"name\":\"device_write\",\"target\":null,",
        "\"start_us\":120,\"dur_us\":10,\"outcome\":\"ok\"}",
        "]}]}]},",
        "{\"trace\":7,\"spans\":[",
        "{\"id\":7,\"parent\":null,\"name\":\"read\",\"target\":null,",
        "\"start_us\":200,\"dur_us\":5,\"outcome\":\"ok\"}",
        "]}]}",
    );
    assert_eq!(got, want);

    // The document also round-trips through the crate's own parser.
    let parsed = clio_obs::json::parse(&got).expect("valid JSON");
    let traces = parsed.get("traces").and_then(|v| v.as_arr()).expect("arr");
    assert_eq!(traces.len(), 2);
}

/// Spans opened on different threads never cross-link: the thread-local
/// parent stack keeps each thread's operations in separate traces.
#[test]
fn parentage_is_thread_local() {
    let ring = Arc::new(TraceRing::new(32));
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let ring = ring.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let _root = ring.span("append");
            barrier.wait(); // both roots open at once
            ring.span("stage").finish();
        }));
    }
    for h in handles {
        h.join().expect("thread");
    }
    let trees = ring.traces();
    assert_eq!(trees.len(), 2, "one trace per thread");
    for t in &trees {
        assert_eq!(t.roots.len(), 1);
        assert_eq!(t.roots[0].span.name, "append");
        assert_eq!(t.roots[0].children.len(), 1);
        assert_eq!(t.roots[0].children[0].span.name, "stage");
    }
}

/// Records `count` prebuilt spans tagged `base..base + count` in `id`.
fn record_tagged(ring: &TraceRing, base: u64, count: u64) {
    for i in base..base + count {
        ring.record_span(fixed_span(i, i, None, "read", 1, 1));
    }
}

/// While the ring has room nothing is lost, whatever the interleaving:
/// every recorder's every span is there, each under its own `seq`.
#[test]
fn concurrent_recorders_lose_nothing_below_capacity() {
    const RECORDERS: u64 = 4;
    const EACH: u64 = 200;
    let ring = TraceRing::new((RECORDERS * EACH) as usize);
    std::thread::scope(|s| {
        for r in 0..RECORDERS {
            let ring = &ring;
            s.spawn(move || record_tagged(ring, r * EACH, EACH));
        }
    });
    let snap = ring.snapshot();
    assert_eq!(ring.total_recorded(), RECORDERS * EACH);
    assert_eq!(snap.len() as u64, RECORDERS * EACH);
    assert_eq!(ring.len() as u64, RECORDERS * EACH);
    let seqs: Vec<u64> = snap.iter().map(|s| s.seq).collect();
    assert_eq!(seqs, (0..RECORDERS * EACH).collect::<Vec<_>>());
    let mut ids: Vec<u64> = snap.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..RECORDERS * EACH).collect::<Vec<_>>());
    // Each recorder's own spans keep their program order.
    for r in 0..RECORDERS {
        let mine: Vec<u64> = snap
            .iter()
            .map(|s| s.id)
            .filter(|id| id / EACH == r)
            .collect();
        assert!(mine.windows(2).all(|w| w[0] < w[1]), "recorder {r}");
    }
}

/// Past capacity the ring keeps exactly the newest `capacity` records —
/// the last `capacity` sequence numbers, no gaps, no stragglers — under
/// concurrent recorders too.
#[test]
fn concurrent_recorders_keep_the_newest_capacity_across_a_wrap() {
    const RECORDERS: u64 = 4;
    const EACH: u64 = 2500;
    const CAPACITY: u64 = 64;
    let ring = TraceRing::new(CAPACITY as usize);
    std::thread::scope(|s| {
        for r in 0..RECORDERS {
            let ring = &ring;
            s.spawn(move || record_tagged(ring, r * EACH, EACH));
        }
        // A concurrent snapshot is strictly increasing in `seq` and never
        // larger than the ring.
        s.spawn(|| {
            while ring.total_recorded() < RECORDERS * EACH {
                let snap = ring.snapshot();
                assert!(snap.len() as u64 <= CAPACITY);
                assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
            }
        });
    });
    let total = RECORDERS * EACH;
    assert_eq!(ring.total_recorded(), total);
    assert_eq!(ring.len() as u64, CAPACITY);
    let seqs: Vec<u64> = ring.snapshot().iter().map(|s| s.seq).collect();
    assert_eq!(seqs, (total - CAPACITY..total).collect::<Vec<_>>());
}

/// A span carrying as many attributes as a span can hold renders in the
/// flight-recorder dump and the `/trace` document exactly as it did when
/// attributes lived in a heap `Vec` (golden output taken from that code);
/// one attribute too many is dropped, not an allocation.
#[test]
fn full_attribute_set_round_trips_through_dump_and_json() {
    let mut span = fixed_span(9, 9, None, "commit_gate", 1000, 250);
    span.target = Some(12);
    span.outcome = "io_error";
    span.attrs.push("shard", AttrValue::U64(3));
    span.attrs
        .push("batch_forced", AttrValue::U64(u64::MAX >> 1));
    span.attrs.push("role", AttrValue::Str("leader"));
    span.attrs.push("blocks", AttrValue::U64(0));
    assert_eq!(span.attrs.len(), Attrs::CAPACITY);
    span.attrs.push("one_too_many", AttrValue::U64(1));
    assert_eq!(span.attrs.len(), Attrs::CAPACITY);

    let ring = TraceRing::new(4);
    ring.record_span(span.clone());
    assert_eq!(ring.snapshot(), vec![span], "seq 0, attributes intact");
    assert_eq!(
        ring.dump(),
        concat!(
            "trace ring: 1 span(s) held, 1 recorded, capacity 4\n",
            "trace 9\n",
            "  commit_gate log:12 +1000us 250us io_error",
            " shard=3 batch_forced=9223372036854775807 role=leader blocks=0\n",
        )
    );
    assert_eq!(
        ring.trace_json().encode(),
        concat!(
            "{\"traces\":[{\"trace\":9,\"spans\":[",
            "{\"id\":9,\"parent\":null,\"name\":\"commit_gate\",\"target\":12,",
            "\"start_us\":1000,\"dur_us\":250,\"outcome\":\"io_error\",",
            "\"attrs\":{\"shard\":3,\"batch_forced\":9223372036854775807,",
            "\"role\":\"leader\",\"blocks\":0}}]}]}",
        )
    );
}
