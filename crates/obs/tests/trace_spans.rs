//! TraceRing integration tests: concurrent record/snapshot safety,
//! per-thread wraparound, buffer reuse after a thread exits, and the
//! golden `GET /trace` JSON shape.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

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

/// Writer `w`'s spans carry `target == w` and an `i` attribute counting
/// its records, so a snapshot shows whose each span is and where it
/// belongs in that thread's record order.
fn tag(span: &mut Span, w: u64, i: u64) {
    span.target = Some(w);
    span.attrs.push("i", AttrValue::U64(i));
}

fn attr_i(span: &Span) -> u64 {
    span.attrs
        .iter()
        .find_map(|&(k, v)| match v {
            AttrValue::U64(i) if k == "i" => Some(i),
            _ => None,
        })
        .expect("every recorded span is tagged")
}

/// What a snapshot taken at any moment must show of each writer (spans
/// grouped by target): its spans intact and in record order — record
/// numbers and `i` tags both consecutive, so nothing torn, duplicated or
/// reordered — and at most `capacity` of them. Returns each writer's
/// `(seq, i)` pairs.
fn per_writer(snap: &[Span], capacity: usize) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut writers: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in snap {
        assert!(matches!(s.name, "append" | "stage" | "read"), "{s:?}");
        let w = s.target.expect("every recorded span has a writer");
        writers.entry(w).or_default().push((s.seq, attr_i(s)));
    }
    for (w, spans) in &writers {
        assert!(spans.len() <= capacity, "writer {w}: {spans:?}");
        for pair in spans.windows(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1, "writer {w}: {spans:?}");
            assert_eq!(pair[1].1, pair[0].1 + 1, "writer {w}: {spans:?}");
        }
    }
    writers
}

/// Records writer `w`'s records `0..each`: one, then (once every writer
/// holds a buffer, so none adopts another's) the rest. Even records go
/// through a guard with a child, odd ones are prebuilt.
fn write_tagged(ring: &TraceRing, w: u64, each: u64, registered: &Barrier) {
    let mut i = 0;
    let record = |i: &mut u64| {
        if i.is_multiple_of(2) {
            let mut root = ring.span("append");
            root.set_target(w);
            root.attr("i", *i + 1);
            let mut child = ring.span("stage");
            child.set_target(w);
            child.attr("i", *i);
            drop(child);
            *i += 2;
        } else {
            let mut span = fixed_span(w, w, None, "read", 1, 1);
            tag(&mut span, w, *i);
            ring.record_span(span);
            *i += 1;
        }
    };
    record(&mut i);
    registered.wait();
    while i < each {
        record(&mut i);
    }
}

/// Writers record from several threads while a reader snapshots and
/// renders concurrently: every snapshot shows each thread's spans
/// intact and in record order, and once they stop, each thread's newest
/// `capacity` spans are exactly what survives.
#[test]
fn concurrent_recording_and_snapshotting_is_safe() {
    const WRITERS: u64 = 4;
    const EACH: u64 = 750;
    const CAPACITY: usize = 64;
    let ring = TraceRing::new(CAPACITY);
    let registered = Barrier::new(WRITERS as usize);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (ring, registered) = (&ring, &registered);
            s.spawn(move || write_tagged(ring, w, EACH, registered));
        }
        s.spawn(|| {
            while ring.total_recorded() < WRITERS * EACH / 2 {
                let snap = ring.snapshot();
                assert!(snap.len() <= WRITERS as usize * CAPACITY);
                per_writer(&snap, CAPACITY);
                let _ = ring.dump();
                let _ = ring.trace_json().encode();
            }
        });
    });
    assert_eq!(ring.total_recorded(), WRITERS * EACH);
    assert_eq!(ring.len(), WRITERS as usize * CAPACITY);
    let newest: Vec<(u64, u64)> = (EACH - CAPACITY as u64..EACH).map(|n| (n, n)).collect();
    for (w, spans) in per_writer(&ring.snapshot(), CAPACITY) {
        assert_eq!(spans, newest, "writer {w}");
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
            ring.span("stage").close();
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
            ring.span("stage").close();
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

/// Records writer `w`'s `count` prebuilt spans, ids `w * count ..`.
fn record_tagged(ring: &TraceRing, w: u64, count: u64) {
    for i in 0..count {
        let mut span = fixed_span(w * count + i, w * count + i, None, "read", 1, 1);
        tag(&mut span, w, i);
        ring.record_span(span);
    }
}

/// While each thread's buffer has room nothing is lost, whatever the
/// interleaving — even when a recorder that finished early hands its
/// buffer to one that starts late: every span is there, once, each
/// recorder's in its program order.
#[test]
fn concurrent_recorders_lose_nothing_below_capacity() {
    const RECORDERS: u64 = 4;
    const EACH: u64 = 200;
    let ring = TraceRing::new((RECORDERS * EACH) as usize);
    std::thread::scope(|s| {
        for w in 0..RECORDERS {
            let ring = &ring;
            s.spawn(move || record_tagged(ring, w, EACH));
        }
    });
    let snap = ring.snapshot();
    assert_eq!(ring.total_recorded(), RECORDERS * EACH);
    assert_eq!(snap.len() as u64, RECORDERS * EACH);
    assert_eq!(ring.len() as u64, RECORDERS * EACH);
    let mut ids: Vec<u64> = snap.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..RECORDERS * EACH).collect::<Vec<_>>());
    for (w, spans) in per_writer(&snap, (RECORDERS * EACH) as usize) {
        let tags: Vec<u64> = spans.iter().map(|&(_, i)| i).collect();
        assert_eq!(tags, (0..EACH).collect::<Vec<_>>(), "recorder {w}");
    }
}

/// Past capacity each thread keeps exactly its newest `capacity`
/// records — no gaps, no stragglers — while concurrent snapshots see
/// every thread's spans consecutive and never more than its capacity.
#[test]
fn concurrent_recorders_keep_the_newest_capacity_across_a_wrap() {
    const RECORDERS: u64 = 4;
    const EACH: u64 = 2500;
    const CAPACITY: u64 = 64;
    let ring = TraceRing::new(CAPACITY as usize);
    let registered = Barrier::new(RECORDERS as usize);
    std::thread::scope(|s| {
        for w in 0..RECORDERS {
            let (ring, registered) = (&ring, &registered);
            s.spawn(move || {
                record_tagged(ring, w, 1);
                registered.wait();
                for i in 1..EACH {
                    let mut span = fixed_span(w * EACH + i, w * EACH + i, None, "read", 1, 1);
                    tag(&mut span, w, i);
                    ring.record_span(span);
                }
            });
        }
        s.spawn(|| {
            while ring.total_recorded() < RECORDERS * EACH {
                let snap = ring.snapshot();
                assert!(snap.len() as u64 <= RECORDERS * CAPACITY);
                per_writer(&snap, CAPACITY as usize);
            }
        });
    });
    assert_eq!(ring.total_recorded(), RECORDERS * EACH);
    assert_eq!(ring.len() as u64, RECORDERS * CAPACITY);
    let newest: Vec<(u64, u64)> = (EACH - CAPACITY..EACH).map(|n| (n, n)).collect();
    for (w, spans) in per_writer(&ring.snapshot(), CAPACITY as usize) {
        assert_eq!(spans, newest, "recorder {w}");
    }
}

/// A thread that exits leaves its buffer to the next thread that starts
/// recording: the newcomer's records follow the survivors in the same
/// numbering, overwrite only the oldest, and bring back nothing already
/// overwritten — and a stream of short-lived threads holds one buffer.
#[test]
fn a_dead_threads_buffer_is_reused_without_losing_or_reviving_spans() {
    let ring = TraceRing::new(8);
    // Joined, not just scoped: a join returns once the thread is gone,
    // thread-locals included.
    let run = |w: u64, count: u64| {
        std::thread::scope(|s| {
            let t = s.spawn(|| record_tagged(&ring, w, count));
            t.join().expect("recorder");
        });
    };
    run(1, 5);
    run(2, 6);
    let survivors: Vec<(Option<u64>, u64, u64)> = ring
        .snapshot()
        .iter()
        .map(|s| (s.target, s.seq, attr_i(s)))
        .collect();
    let mut want = vec![(Some(1), 3, 3), (Some(1), 4, 4)];
    want.extend((0..6).map(|i| (Some(2), 5 + i, i)));
    assert_eq!(survivors, want);
    assert_eq!(ring.total_recorded(), 11);
    for w in 3..23 {
        run(w, 3);
    }
    assert_eq!(ring.total_recorded(), 71);
    assert_eq!(ring.len(), 8, "one buffer served every thread");
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
