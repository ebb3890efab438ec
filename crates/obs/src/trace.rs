//! Causal span tracing: a fixed-capacity flight recorder of [`Span`]s.
//!
//! Every logical operation (append, read, locate, recover, …) opens a
//! *root* span; the phases it passes through (stage, seal, commit-gate
//! wait, device write, publish, cache load, …) open *child* spans, linked
//! by trace id and parent id. Parentage is implicit: a thread-local stack
//! tracks the span currently open on each thread, so a phase started
//! anywhere inside an operation attaches to that operation without
//! threading handles through every call. Finished spans land in a
//! [`TraceRing`], a bounded overwrite-oldest buffer that can render the
//! surviving spans as per-trace trees ([`TraceRing::dump`] — the "flight
//! recorder" view, intended for printing from a failing test or crash
//! handler) or as a JSON document ([`TraceRing::trace_json`] — the ops
//! plane's `GET /trace` body).
//!
//! Timestamps come from [`crate::clock::now_us`], so a simulator that
//! installs a virtual time source gets byte-identical span trees for the
//! same seed.
//!
//! # Recording cost
//!
//! Every operation of every thread records here, so recording must not
//! make threads wait for — or clean up after — one another. A recorder
//! claims a sequence number with one `fetch_add` and locks only the slot
//! that number maps to; attributes are stored inline in the span
//! ([`Attrs`]), so recording allocates nothing and overwriting a slot
//! frees nothing another thread allocated.

use clio_testkit::sync::atomic::{AtomicU64, Ordering};
use std::cell::RefCell;

use clio_testkit::sync::Mutex;

use crate::json::Value;

/// A key/value span attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrValue {
    /// A numeric attribute (counts, sizes, sequence numbers).
    U64(u64),
    /// A symbolic attribute (roles, modes).
    Str(&'static str),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One finished span: a named phase of one traced operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Monotonic record sequence number (global across the ring's life).
    pub seq: u64,
    /// The trace this span belongs to (the root span's id).
    pub trace: u64,
    /// This span's id, unique within the ring's lifetime.
    pub id: u64,
    /// The enclosing span's id; `None` for a root span.
    pub parent: Option<u64>,
    /// Phase name, e.g. `"append"`, `"stage"`, `"commit_gate"`.
    pub name: &'static str,
    /// The log file (or other target) the span acted on, if any.
    pub target: Option<u64>,
    /// Start, µs (virtual or host — see [`crate::clock::now_us`]).
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// `"ok"` or a short error tag.
    pub outcome: &'static str,
    /// Key/value attributes (leader/follower role, batch size, bytes, …).
    pub attrs: Attrs,
}

/// A span's key/value attributes, stored inline: at most
/// [`Attrs::CAPACITY`] of them, in the order they were attached.
/// Dereferences to a slice of `(key, value)` pairs. (Slots past `len`
/// always hold the filler `new()` put there, so derived equality is
/// equality of those slices.)
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Attrs {
    len: u8,
    items: [(&'static str, AttrValue); Attrs::CAPACITY],
}

impl Attrs {
    /// The most attributes one span can carry (the widest span recorded
    /// today, a leader's `commit_gate`, carries all four).
    pub const CAPACITY: usize = 4;

    /// No attributes.
    #[must_use]
    pub const fn new() -> Attrs {
        Attrs {
            len: 0,
            items: [("", AttrValue::U64(0)); Attrs::CAPACITY],
        }
    }

    /// Attaches one more attribute. A span that is already full keeps
    /// what it has: an attribute too many is dropped, never a reason to
    /// allocate on the recording path.
    pub fn push(&mut self, key: &'static str, value: AttrValue) {
        if let Some(slot) = self.items.get_mut(usize::from(self.len)) {
            *slot = (key, value);
            self.len += 1;
        }
    }
}

impl Default for Attrs {
    fn default() -> Attrs {
        Attrs::new()
    }
}

impl std::ops::Deref for Attrs {
    type Target = [(&'static str, AttrValue)];

    fn deref(&self) -> &Self::Target {
        &self.items[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for Attrs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Span {
    fn attr_string(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.attrs.iter() {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
        }
        out
    }
}

thread_local! {
    /// The stack of spans currently open on this thread, as
    /// `(trace, span id)`. The top is the parent of the next span opened.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A bounded, overwrite-oldest buffer of finished [`Span`]s.
///
/// Record number `seq` lives in slot `seq % capacity` until record
/// `seq + capacity` replaces it. Each slot has its own lock, held for one
/// span-sized copy, so two recorders contend only when they are a whole
/// lap apart on the same slot.
pub struct TraceRing {
    slots: Box<[Mutex<Option<Span>>]>,
    /// The next record sequence number; also the total ever recorded.
    next_seq: AtomicU64,
    next_id: AtomicU64,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .finish_non_exhaustive()
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` spans. A capacity of 0 disables
    /// recording entirely (every span is a cheap no-op).
    #[must_use]
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: (0..capacity)
                .map(|_| Mutex::with_class(None, "obs.trace_slot"))
                .collect(),
            next_seq: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
        }
    }

    /// Opens a span named `name`. If another span is open on this thread,
    /// the new span becomes its child (same trace); otherwise it roots a
    /// fresh trace. The span is recorded when the guard drops (or
    /// [`SpanGuard::finish`]es).
    #[must_use]
    pub fn span<'a>(&'a self, name: &'static str) -> SpanGuard<'a> {
        if self.slots.is_empty() {
            return SpanGuard {
                ring: self,
                span: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| s.borrow().last().copied());
        let (trace, parent) = match parent {
            Some((trace, pid)) => (trace, Some(pid)),
            None => (id, None),
        };
        OPEN.with(|s| s.borrow_mut().push((trace, id)));
        SpanGuard {
            ring: self,
            span: Some(Span {
                seq: 0,
                trace,
                id,
                parent,
                name,
                target: None,
                start_us: crate::clock::now_us(),
                dur_us: 0,
                outcome: "ok",
                attrs: Attrs::new(),
            }),
        }
    }

    /// Records a pre-built completed span verbatim (only `seq` is
    /// assigned). Used by tests needing deterministic contents and by
    /// [`TraceRing::record`]; live tracing goes through [`TraceRing::span`].
    pub fn record_span(&self, mut span: Span) {
        if self.slots.is_empty() {
            return;
        }
        // Relaxed: the number only picks a slot and orders records; the
        // span itself is published by the slot's lock.
        span.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.slots[(span.seq % self.slots.len() as u64) as usize].lock();
        // A recorder descheduled between its claim and this lock for a
        // whole lap finds a newer record already here; it must lose.
        if slot.as_ref().is_none_or(|held| held.seq < span.seq) {
            *slot = Some(span);
        }
    }

    /// Records one already-measured operation as a completed span:
    /// a child of the span currently open on this thread, or a
    /// single-span trace of its own. (The pre-span `TraceRing` API,
    /// still the right shape for ops measured with an explicit timer.)
    pub fn record(
        &self,
        op: &'static str,
        target: Option<u64>,
        blocks: u64,
        dur: std::time::Duration,
        outcome: &'static str,
    ) {
        if self.slots.is_empty() {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (trace, parent) = match OPEN.with(|s| s.borrow().last().copied()) {
            Some((trace, pid)) => (trace, Some(pid)),
            None => (id, None),
        };
        let dur_us = u64::try_from(dur.as_micros()).unwrap_or(u64::MAX);
        let mut attrs = Attrs::new();
        if blocks > 0 {
            attrs.push("blocks", AttrValue::U64(blocks));
        }
        self.record_span(Span {
            seq: 0,
            trace,
            id,
            parent,
            name: op,
            target,
            start_us: crate::clock::now_us().saturating_sub(dur_us),
            dur_us,
            outcome,
            attrs,
        });
    }

    /// The surviving spans, oldest first (strictly increasing `seq`).
    /// Taken slot by slot, so while recorders are running it is a
    /// consistent copy of each span but not one instant of the whole ring:
    /// a record claimed but not yet stored is simply absent.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Span> {
        let mut out: Vec<Span> = self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        out.sort_unstable_by_key(|s| s.seq);
        out
    }

    /// Number of spans currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total_recorded().min(self.capacity() as u64) as usize
    }

    /// Whether no spans have been recorded (or capacity is 0).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total spans ever recorded, including overwritten ones.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Maximum spans held.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The surviving spans grouped into trees, one per trace, ordered by
    /// each trace's first surviving span. Spans whose parent was already
    /// overwritten surface as roots of their trace.
    #[must_use]
    pub fn traces(&self) -> Vec<TraceTree> {
        build_trees(self.snapshot())
    }

    /// Renders the ring as indented per-trace trees — the flight-recorder
    /// view. Oldest trace first; children indented under their parents.
    #[must_use]
    pub fn dump(&self) -> String {
        let spans = self.snapshot();
        let held = spans.len();
        let mut out = format!(
            "trace ring: {held} span(s) held, {} recorded, capacity {}\n",
            self.total_recorded(),
            self.capacity()
        );
        for tree in build_trees(spans) {
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("trace {}\n", tree.trace));
            for root in &tree.roots {
                render_text(root, 1, &mut out);
            }
        }
        out
    }

    /// The surviving spans as a JSON document shaped for `GET /trace`:
    /// `{"traces": [{"trace": id, "spans": [tree…]}]}`.
    #[must_use]
    pub fn trace_json(&self) -> Value {
        Value::obj(vec![(
            "traces",
            Value::Arr(
                self.traces()
                    .into_iter()
                    .map(|t| {
                        Value::obj(vec![
                            ("trace", Value::Int(t.trace as i64)),
                            ("spans", Value::Arr(t.roots.iter().map(node_json).collect())),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// One span and the children recorded under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span itself.
    pub span: Span,
    /// Child spans, oldest first.
    pub children: Vec<SpanNode>,
}

/// All surviving spans of one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// The trace id (the root span's id).
    pub trace: u64,
    /// Top-level spans: the root, plus any span whose parent was
    /// overwritten.
    pub roots: Vec<SpanNode>,
}

fn build_trees(spans: Vec<Span>) -> Vec<TraceTree> {
    use std::collections::BTreeMap;
    // Group by trace, preserving record order within each trace.
    let mut order: Vec<u64> = Vec::new();
    let mut by_trace: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        if !by_trace.contains_key(&s.trace) {
            order.push(s.trace);
        }
        by_trace.entry(s.trace).or_default().push(s);
    }
    order
        .into_iter()
        .map(|trace| {
            let members = by_trace.remove(&trace).unwrap_or_default();
            let present: std::collections::BTreeSet<u64> = members.iter().map(|s| s.id).collect();
            // Assemble bottom-up: each span's children are the members
            // naming it as parent, in record order.
            let mut children: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
            let mut roots: Vec<Span> = Vec::new();
            for s in members {
                match s.parent {
                    Some(p) if present.contains(&p) => {
                        children.entry(p).or_default().push(s);
                    }
                    _ => roots.push(s),
                }
            }
            fn attach(span: Span, children: &mut BTreeMap<u64, Vec<Span>>) -> SpanNode {
                let kids = children.remove(&span.id).unwrap_or_default();
                SpanNode {
                    span,
                    children: kids.into_iter().map(|c| attach(c, children)).collect(),
                }
            }
            TraceTree {
                trace,
                roots: roots
                    .into_iter()
                    .map(|s| attach(s, &mut children))
                    .collect(),
            }
        })
        .collect()
}

fn render_text(node: &SpanNode, depth: usize, out: &mut String) {
    let s = &node.span;
    let target = s.target.map_or_else(String::new, |t| format!(" log:{t}"));
    let _ = std::fmt::Write::write_fmt(
        out,
        format_args!(
            "{:indent$}{}{} +{}us {}us {}{}\n",
            "",
            s.name,
            target,
            s.start_us,
            s.dur_us,
            s.outcome,
            s.attr_string(),
            indent = depth * 2
        ),
    );
    for c in &node.children {
        render_text(c, depth + 1, out);
    }
}

fn node_json(node: &SpanNode) -> Value {
    let s = &node.span;
    let mut fields = vec![
        ("id", Value::Int(s.id as i64)),
        (
            "parent",
            s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
        ),
        ("name", Value::from(s.name)),
        (
            "target",
            s.target.map_or(Value::Null, |t| Value::Int(t as i64)),
        ),
        ("start_us", Value::Int(s.start_us as i64)),
        ("dur_us", Value::Int(s.dur_us as i64)),
        ("outcome", Value::from(s.outcome)),
    ];
    if !s.attrs.is_empty() {
        fields.push((
            "attrs",
            Value::Obj(
                s.attrs
                    .iter()
                    .map(|(k, v)| {
                        (
                            (*k).to_owned(),
                            match v {
                                AttrValue::U64(n) => Value::Int(*n as i64),
                                AttrValue::Str(t) => Value::from(*t),
                            },
                        )
                    })
                    .collect(),
            ),
        ));
    }
    if !node.children.is_empty() {
        fields.push((
            "children",
            Value::Arr(node.children.iter().map(node_json).collect()),
        ));
    }
    Value::obj(fields)
}

/// An open span; records itself into the ring when dropped (or
/// explicitly [`SpanGuard::finish`]ed). Guards must drop in LIFO order on
/// a thread — the natural consequence of scoping them to the phase they
/// measure.
pub struct SpanGuard<'a> {
    ring: &'a TraceRing,
    span: Option<Span>,
}

impl SpanGuard<'_> {
    /// Attaches a numeric attribute.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(s) = &mut self.span {
            s.attrs.push(key, AttrValue::U64(value));
        }
    }

    /// Attaches a symbolic attribute.
    pub fn attr_str(&mut self, key: &'static str, value: &'static str) {
        if let Some(s) = &mut self.span {
            s.attrs.push(key, AttrValue::Str(value));
        }
    }

    /// Sets the span's target (log file id or similar).
    pub fn set_target(&mut self, target: u64) {
        if let Some(s) = &mut self.span {
            s.target = Some(target);
        }
    }

    /// Marks the span failed with a short error tag.
    pub fn fail(&mut self, outcome: &'static str) {
        if let Some(s) = &mut self.span {
            s.outcome = outcome;
        }
    }

    /// The span's id within the ring, when tracing is enabled.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.span.as_ref().map(|s| s.id)
    }

    /// Closes and records the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(mut span) = self.span.take() else {
            return;
        };
        span.dur_us = crate::clock::now_us().saturating_sub(span.start_us);
        OPEN.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own entry; tolerate (but do not mask) unbalanced
            // drops by searching from the top.
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == span.id) {
                stack.truncate(pos);
            }
        });
        self.ring.record_span(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_into_one_trace() {
        let ring = TraceRing::new(16);
        {
            let mut root = ring.span("append");
            root.set_target(7);
            {
                let _stage = ring.span("stage");
            }
            {
                let mut gate = ring.span("commit_gate");
                gate.attr_str("role", "leader");
                let _write = ring.span("device_write");
            }
        }
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "append").expect("root");
        assert_eq!(root.parent, None);
        assert_eq!(root.target, Some(7));
        for s in &spans {
            assert_eq!(s.trace, root.trace, "all spans share the root's trace");
        }
        let gate = spans
            .iter()
            .find(|s| s.name == "commit_gate")
            .expect("gate");
        assert_eq!(gate.parent, Some(root.id));
        let write = spans
            .iter()
            .find(|s| s.name == "device_write")
            .expect("write");
        assert_eq!(write.parent, Some(gate.id));
        let trees = ring.traces();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].roots.len(), 1);
        assert_eq!(trees[0].roots[0].children.len(), 2);
    }

    #[test]
    fn sibling_roots_make_separate_traces() {
        let ring = TraceRing::new(8);
        ring.span("read").finish();
        ring.span("read").finish();
        let trees = ring.traces();
        assert_eq!(trees.len(), 2);
    }

    #[test]
    fn record_compat_wraps_and_orders() {
        let ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.record("append", Some(i), i, Duration::from_micros(10), "ok");
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_recorded(), 5);
        let spans = ring.snapshot();
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(spans[0].target, Some(2));
    }

    #[test]
    fn zero_capacity_is_a_noop() {
        let ring = TraceRing::new(0);
        ring.record("read", None, 1, Duration::ZERO, "ok");
        {
            let mut g = ring.span("append");
            g.attr("bytes", 10);
        }
        assert!(ring.is_empty());
        assert_eq!(ring.total_recorded(), 0);
        assert!(ring.dump().contains("0 span(s)"));
    }

    #[test]
    fn dump_mentions_every_surviving_span() {
        let ring = TraceRing::new(8);
        ring.record("locate", Some(7), 3, Duration::from_micros(42), "ok");
        ring.record("append", None, 1, Duration::from_micros(5), "io_error");
        let dump = ring.dump();
        assert!(dump.contains("locate"));
        assert!(dump.contains("log:7"));
        assert!(dump.contains("io_error"));
        assert!(dump.contains("capacity 8"));
        assert!(dump.contains("blocks=3"));
    }

    #[test]
    fn orphaned_children_surface_as_roots() {
        let ring = TraceRing::new(2);
        {
            let _root = ring.span("append");
            ring.span("stage").finish();
            ring.span("seal").finish();
            // Root records last; capacity 2 keeps {seal, append} only —
            // wait: stage is overwritten, seal's parent (append) survives.
        }
        let trees = ring.traces();
        assert_eq!(trees.len(), 1);
        // seal recorded before append; both survive, seal is append's
        // child even though it was recorded first.
        let names: Vec<&str> = trees[0].roots.iter().map(|n| n.span.name).collect();
        assert_eq!(names, vec!["append"]);
        assert_eq!(trees[0].roots[0].children[0].span.name, "seal");
    }

    #[test]
    fn failed_spans_keep_their_outcome() {
        let ring = TraceRing::new(4);
        {
            let mut g = ring.span("append");
            g.fail("io_error");
        }
        assert_eq!(ring.snapshot()[0].outcome, "io_error");
    }
}
