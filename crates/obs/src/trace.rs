//! Causal span tracing: a bounded flight recorder of [`Span`]s.
//!
//! Every logical operation (append, read, locate, recover, …) opens a
//! *root* span; the phases it passes through (stage, seal, commit-gate
//! wait, device write, publish, cache load, …) open *child* spans, linked
//! by trace id and parent id. Parentage is implicit: a thread-local stack
//! tracks the span currently open on each thread, so a phase started
//! anywhere inside an operation attaches to that operation without
//! threading handles through every call. Finished spans land in a
//! [`TraceRing`], which keeps the newest spans of each recording thread
//! and can render the survivors as per-trace trees ([`TraceRing::dump`] —
//! the "flight recorder" view, intended for printing from a failing test
//! or crash handler) or as a JSON document ([`TraceRing::trace_json`] —
//! the ops plane's `GET /trace` body).
//!
//! Spans open and close at [`crate::clock::Reading`]s: one reading per
//! phase boundary, shared by the span that closes there, the span that
//! opens there, and the latency the operation's histogram records (the
//! value [`SpanGuard::close`] returns). A simulator that installs a
//! virtual time source gets byte-identical span trees for the same seed.
//!
//! # Recording cost
//!
//! Every operation of every thread records here, so recording touches
//! nothing another recording thread writes. Each thread records into a
//! buffer of its own — `capacity` spans, overwrite-oldest — under a lock
//! only that thread and a snapshot ever take. Span ids come from the
//! thread's own block of 1 024 ids; the shared block counter and the
//! ring's buffer list are touched once per block and once per thread.
//! Attributes are stored inline in the span ([`Attrs`]), so recording
//! allocates nothing once the buffer is full. A thread that exits leaves
//! its buffer to the next thread that starts recording, so memory is
//! bounded by the number of live recording threads, each holding at most
//! `capacity` spans.
//!
//! # Order
//!
//! A snapshot merges the buffers: within a buffer, spans keep the order
//! they were recorded in; across buffers, the span that closed first
//! (`start_us + dur_us`) comes first, ties broken by the buffer's index —
//! the order in which threads first recorded into the ring. A buffer
//! handed to a new thread keeps its index and its record numbering.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Weak};
use std::time::Duration;

use clio_testkit::sync::atomic::{AtomicU64, Ordering};
use clio_testkit::sync::Mutex;

use crate::clock::{self, Reading};
use crate::json::Value;

/// Span ids a thread takes from its ring at a time: block `b` holds ids
/// `1 + b * ID_BLOCK` onwards. A single-threaded run therefore numbers
/// its spans 1, 2, 3, … exactly as a single ring would.
const ID_BLOCK: u64 = 1024;

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
    /// Record number within the thread buffer that holds the span
    /// (counting on across the buffer's successive threads).
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
    /// Start, µs (virtual or host — see [`crate::clock::Reading::us`]).
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

/// One recording thread's spans: the newest `capacity` of them, and how
/// many were ever recorded here.
#[derive(Default)]
struct Held {
    spans: Vec<Span>,
    recorded: u64,
}

impl Held {
    /// Stores `span` as record number `recorded`, over the oldest once
    /// the buffer is full.
    fn push(&mut self, mut span: Span, capacity: usize) {
        span.seq = self.recorded;
        if self.spans.len() < capacity {
            self.spans.push(span);
        } else {
            let slot = (self.recorded % capacity as u64) as usize;
            self.spans[slot] = span;
        }
        self.recorded += 1;
    }

    /// The held spans, oldest first.
    fn in_record_order(&self) -> Vec<Span> {
        let oldest = match self.spans.len() {
            0 => 0,
            n => (self.recorded % n as u64) as usize,
        };
        let (newer, older) = self.spans.split_at(oldest);
        older.iter().chain(newer).cloned().collect()
    }
}

/// A recording thread's buffer. Only its thread writes it; a snapshot
/// reads it under the same lock. Its position in the ring's buffer list
/// is the thread id of the merge order. Aligned so that no other
/// thread's buffer shares its cache lines.
#[repr(align(128))]
struct ThreadBuf {
    held: Mutex<Held>,
}

/// What a [`TraceRing`] shares with the threads recording into it.
struct Shared {
    /// Spans kept per thread; 0 disables recording.
    capacity: usize,
    /// Every buffer handed out, in the order threads first recorded.
    buffers: Mutex<Vec<Arc<ThreadBuf>>>,
    /// The next unclaimed block of span ids.
    next_block: AtomicU64,
}

impl Shared {
    /// A buffer for a thread that starts recording: one whose thread has
    /// exited (only this list still holds it), else a new one.
    fn adopt_buffer(&self) -> Arc<ThreadBuf> {
        let mut buffers = self.buffers.lock();
        if let Some(orphan) = buffers.iter().find(|b| Arc::strong_count(b) == 1) {
            return orphan.clone();
        }
        let buf = Arc::new(ThreadBuf {
            held: Mutex::with_class(Held::default(), "obs.trace_buffer"),
        });
        buffers.push(buf.clone());
        buf
    }

    /// Every buffer's spans in record order, by buffer index.
    fn collect(&self) -> Vec<Vec<Span>> {
        let buffers = self.buffers.lock();
        buffers
            .iter()
            .map(|b| b.held.lock().in_record_order())
            .collect()
    }

    /// Spans held and spans ever recorded, over all buffers.
    fn counts(&self) -> (usize, u64) {
        let buffers = self.buffers.lock();
        buffers.iter().fold((0, 0), |(held, recorded), b| {
            let b = b.held.lock();
            (held + b.spans.len(), recorded + b.recorded)
        })
    }
}

impl Drop for Shared {
    /// Frees every buffer's spans with the ring. A live thread that
    /// recorded here still holds its (now empty) buffer until it next
    /// joins a ring, and that should not cost it a buffer's worth of
    /// memory or the time to free it.
    fn drop(&mut self) {
        for b in self.buffers.get_mut().iter() {
            b.held.lock().spans = Vec::new();
        }
    }
}

/// This thread's part in one ring.
struct Membership {
    ring: Weak<Shared>,
    buf: Arc<ThreadBuf>,
    /// What is left of the thread's current block of span ids.
    ids: std::ops::Range<u64>,
}

impl Membership {
    fn next_id(&mut self, shared: &Shared) -> u64 {
        if let Some(id) = self.ids.next() {
            return id;
        }
        // Relaxed: the counter only hands out disjoint blocks.
        let first = 1 + shared.next_block.fetch_add(1, Ordering::Relaxed) * ID_BLOCK;
        self.ids = first + 1..first + ID_BLOCK;
        first
    }
}

/// The per-thread recording state: the open-span stack and this thread's
/// buffer in each ring it records into.
struct Recorder {
    /// The spans currently open on this thread, as `(trace, span id)`.
    /// The top is the parent of the next span opened.
    open: Vec<(u64, u64)>,
    rings: Vec<Membership>,
}

impl Recorder {
    /// This thread's membership of `shared`, joining it on first use.
    fn member(&mut self, shared: &Arc<Shared>) -> &mut Membership {
        let me = Arc::as_ptr(shared);
        let at = match self.rings.iter().position(|m| m.ring.as_ptr() == me) {
            Some(at) => at,
            None => {
                // Forget rings that are gone (their buffers with them).
                self.rings.retain(|m| m.ring.strong_count() > 0);
                self.rings.push(Membership {
                    ring: Arc::downgrade(shared),
                    buf: shared.adopt_buffer(),
                    ids: 0..0,
                });
                self.rings.len() - 1
            }
        };
        &mut self.rings[at]
    }

    /// Stores a finished span in this thread's buffer of `shared`.
    fn store(&mut self, shared: &Arc<Shared>, span: Span) {
        self.member(shared)
            .buf
            .held
            .lock()
            .push(span, shared.capacity);
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            open: Vec::new(),
            rings: Vec::new(),
        })
    };
}

/// A bounded flight recorder of finished [`Span`]s: the newest
/// `capacity` spans of each recording thread (see the module docs for
/// the recording cost and the merge order).
pub struct TraceRing {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .finish_non_exhaustive()
    }
}

impl TraceRing {
    /// A recorder keeping at most `capacity` spans per recording thread.
    /// A capacity of 0 disables recording entirely (every span is a cheap
    /// no-op).
    #[must_use]
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            shared: Arc::new(Shared {
                capacity,
                buffers: Mutex::with_class(Vec::new(), "obs.trace_buffers"),
                next_block: AtomicU64::new(0),
            }),
        }
    }

    /// Opens a span named `name` at a fresh clock reading (no reading
    /// at all while recording is disabled). If another span is open on
    /// this thread, the new span becomes its child (same trace);
    /// otherwise it roots a fresh trace. The span is recorded when the
    /// guard closes or drops.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if self.shared.capacity == 0 {
            return SpanGuard {
                ring: self,
                span: None,
                opened: None,
            };
        }
        self.span_at(name, clock::read())
    }

    /// Opens a span named `name` at `at`, a reading the caller already
    /// took (the boundary it shares with the phase before, or the start
    /// of a latency it measures). Parentage as for [`TraceRing::span`].
    #[must_use]
    pub fn span_at(&self, name: &'static str, at: Reading) -> SpanGuard<'_> {
        let span = if self.shared.capacity == 0 {
            None
        } else {
            RECORDER
                .try_with(|r| {
                    let r = &mut *r.borrow_mut();
                    let id = r.member(&self.shared).next_id(&self.shared);
                    let (trace, parent) = match r.open.last() {
                        Some(&(trace, pid)) => (trace, Some(pid)),
                        None => (id, None),
                    };
                    r.open.push((trace, id));
                    Span {
                        seq: 0,
                        trace,
                        id,
                        parent,
                        name,
                        target: None,
                        start_us: at.us(),
                        dur_us: 0,
                        outcome: "ok",
                        attrs: Attrs::new(),
                    }
                })
                .ok()
        };
        SpanGuard {
            ring: self,
            span,
            opened: Some(at),
        }
    }

    /// Records a pre-built completed span verbatim into this thread's
    /// buffer (only `seq` is assigned). Used by tests needing
    /// deterministic contents; live tracing goes through
    /// [`TraceRing::span`].
    pub fn record_span(&self, span: Span) {
        if self.shared.capacity == 0 {
            return;
        }
        let _ = RECORDER.try_with(|r| r.borrow_mut().store(&self.shared, span));
    }

    /// Pops `span` off this thread's open stack, closes it at `at` and
    /// stores it.
    fn close_span(&self, mut span: Span, at: Reading) {
        span.dur_us = at.us().saturating_sub(span.start_us);
        let _ = RECORDER.try_with(|r| {
            let r = &mut *r.borrow_mut();
            // Pop our own entry; tolerate (but do not mask) unbalanced
            // closes by searching from the top.
            if let Some(pos) = r.open.iter().rposition(|&(_, id)| id == span.id) {
                r.open.truncate(pos);
            }
            r.store(&self.shared, span);
        });
    }

    /// The surviving spans in the merge order of the module docs. Taken
    /// buffer by buffer, so while recorders are running it holds a
    /// consistent prefix of each thread's records but not one instant of
    /// the whole ring.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Span> {
        merge(self.shared.collect())
    }

    /// Number of spans currently held, over all threads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.counts().0
    }

    /// Whether no spans are held (always, when capacity is 0).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total spans ever recorded, including overwritten ones.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.shared.counts().1
    }

    /// Maximum spans held per recording thread.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
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
        let mut out = format!(
            "trace ring: {} span(s) held, {} recorded, capacity {}\n",
            spans.len(),
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

/// Merges per-buffer record-order lists (indexed by buffer) into the
/// order of the module docs: each list keeps its own order; across lists
/// the earliest closing span goes first, ties to the lower index.
fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let closed = |s: &Span| s.start_us.saturating_add(s.dur_us);
    let mut out = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    let mut lists: Vec<_> = buffers
        .into_iter()
        .map(|b| b.into_iter().peekable())
        .collect();
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = lists
        .iter_mut()
        .enumerate()
        .filter_map(|(i, l)| Some(Reverse((closed(l.peek()?), i))))
        .collect();
    while let Some(Reverse((_, i))) = heads.pop() {
        out.extend(lists[i].next());
        if let Some(next) = lists[i].peek() {
            heads.push(Reverse((closed(next), i)));
        }
    }
    out
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

/// An open span; records itself into the ring when closed or dropped.
/// Guards must close in LIFO order on a thread — the natural consequence
/// of scoping them to the phase they measure.
pub struct SpanGuard<'a> {
    ring: &'a TraceRing,
    /// The span being built; `None` while recording is disabled.
    span: Option<Span>,
    /// The reading the span opened at; `None` only for a disabled span
    /// opened by [`TraceRing::span`], which took no reading.
    opened: Option<Reading>,
}

impl<'a> SpanGuard<'a> {
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

    /// Closes the span at a fresh reading and returns the host time
    /// since it opened — the operation's latency. A disabled span opened
    /// by [`TraceRing::span`] reads no clock and returns zero.
    pub fn close(self) -> Duration {
        match self.opened {
            Some(_) => self.close_at(clock::read()),
            None => Duration::ZERO,
        }
    }

    /// Closes the span at `at`, a reading the caller shares with the
    /// next phase, and returns the host time since it opened.
    pub fn close_at(mut self, at: Reading) -> Duration {
        if let Some(span) = self.span.take() {
            self.ring.close_span(span, at);
        }
        self.opened
            .map_or(Duration::ZERO, |opened| at.since(opened))
    }

    /// Closes this phase and opens the next, `name`, at one shared
    /// reading — no reading at all while recording is disabled.
    #[must_use]
    pub fn then(mut self, name: &'static str) -> SpanGuard<'a> {
        let ring = self.ring;
        match self.span.take() {
            Some(span) => {
                let at = clock::read();
                ring.close_span(span, at);
                ring.span_at(name, at)
            }
            None => SpanGuard {
                ring,
                span: None,
                opened: None,
            },
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(span) = self.span.take() {
            self.ring.close_span(span, clock::read());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A completed single-span trace, as tests record it.
    fn flat(name: &'static str, target: u64, blocks: u64, outcome: &'static str) -> Span {
        let mut attrs = Attrs::new();
        attrs.push("blocks", AttrValue::U64(blocks));
        Span {
            seq: 0,
            trace: target,
            id: target,
            parent: None,
            name,
            target: Some(target),
            start_us: 0,
            dur_us: 10,
            outcome,
            attrs,
        }
    }

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
        ring.span("read").close();
        ring.span("read").close();
        let trees = ring.traces();
        assert_eq!(trees.len(), 2);
    }

    #[test]
    fn a_thread_numbers_its_spans_from_one_and_keeps_the_newest() {
        let ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.record_span(flat("append", i, i, "ok"));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_recorded(), 5);
        let spans = ring.snapshot();
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(spans[0].target, Some(2));
        // Live spans take ids from the thread's block: 1, 2, 3, …
        let ring = TraceRing::new(8);
        let ids: Vec<Option<u64>> = (0..3).map(|_| ring.span("read").id()).collect();
        assert_eq!(ids, vec![Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn spans_share_the_readings_they_are_given() {
        let _v = clock::install_virtual_us(Arc::new(|| 50));
        let ring = TraceRing::new(8);
        let at = clock::read();
        let root = ring.span_at("append", at);
        let stage = ring.span_at("stage", at);
        let boundary = clock::read();
        stage.close_at(boundary);
        let gate = ring.span_at("commit_gate", boundary);
        assert!(gate.close_at(boundary) == Duration::ZERO);
        assert!(root.close_at(boundary) == boundary.since(at));
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.start_us == 50 && s.dur_us == 0));
    }

    #[test]
    fn zero_capacity_is_a_noop() {
        let ring = TraceRing::new(0);
        ring.record_span(flat("read", 1, 1, "ok"));
        {
            let mut g = ring.span("append");
            g.attr("bytes", 10);
            assert_eq!(g.close(), Duration::ZERO, "no reading was taken");
        }
        // A disabled span opened at a reading still measures its latency.
        let at = clock::read();
        let _ = ring.span_at("read", at).close();
        assert!(ring.is_empty());
        assert_eq!(ring.total_recorded(), 0);
        assert!(ring.dump().contains("0 span(s)"));
    }

    #[test]
    fn dump_mentions_every_surviving_span() {
        let ring = TraceRing::new(8);
        ring.record_span(flat("locate", 7, 3, "ok"));
        ring.record_span(flat("append", 8, 1, "io_error"));
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
            ring.span("stage").close();
            ring.span("seal").close();
            // Root records last; capacity 2 keeps {seal, append} only:
            // stage is overwritten, seal's parent (append) survives.
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

    #[test]
    fn merge_keeps_thread_order_and_interleaves_by_closing_time() {
        let at = |end: u64, id: u64| Span {
            dur_us: end,
            ..flat("read", id, 0, "ok")
        };
        // Thread 1's second span closed "before" its first (a clock that
        // went backwards); it still follows it.
        let merged = merge(vec![
            vec![at(10, 1), at(30, 2)],
            vec![at(20, 3), at(5, 4)],
            vec![at(10, 5)],
        ]);
        let ids: Vec<u64> = merged.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 5, 3, 4, 2]);
    }
}
