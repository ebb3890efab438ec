//! The benchmark's span recorder (choosing-metrics §4), entirely outside
//! the product: a span is opened around every service call, and the
//! [`crate::device::TimedDevice`] decorator opens child spans around the
//! device calls made underneath it. Spans are kept in per-thread vectors,
//! handed to a process-wide sink when a client thread finishes, and written
//! out once at exit. Recording is off during the untraced run.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::alloc;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run; never 0.
    pub id: u64,
    /// The span that caused this one, or 0 for an op (root) span.
    pub parent: u64,
    /// The op this span belongs to: roots carry the id the harness gave
    /// them, children inherit their parent's.
    pub op: u64,
    /// The layer boundary crossed, e.g. `core.append`, `device.write`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// The recording thread (small integers in order of first use).
    pub thread: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct ThreadRec {
    thread: u64,
    /// Spans this thread has opened so far; survives `flush_thread`, so
    /// ids stay unique after the vector has been handed over.
    serial: u64,
    spans: Vec<Span>,
    /// Indexes into `spans` of the open spans, innermost last.
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<ThreadRec>> = const { RefCell::new(None) };
}

/// Bits of a span id holding the per-thread serial; the thread sits above.
const THREAD_SHIFT: u32 = 40;

/// Whether spans are being recorded. `Relaxed`: the flag publishes no
/// other data; it is flipped only between phases, with no client running.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off (between phases only).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Closes its span when dropped.
#[must_use]
pub struct Guard {
    index: Option<usize>,
}

/// Opens a span as a child of this thread's innermost open span (a root if
/// there is none). `op` names the op for a root and is ignored for a
/// child. Returns an inert guard while recording is off.
pub fn enter(name: &'static str, op: u64) -> Guard {
    if !enabled() {
        return Guard { index: None };
    }
    // The recorder's own vector growth is not the measured op's allocation.
    let index = alloc::uncounted(|| {
        REC.with(|rec| {
            let mut rec = rec.borrow_mut();
            let rec = rec.get_or_insert_with(|| ThreadRec {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                serial: 0,
                spans: Vec::with_capacity(1 << 16),
                open: Vec::with_capacity(8),
            });
            let (parent, op) = match rec.open.last() {
                Some(&p) => (rec.spans[p].id, rec.spans[p].op),
                None => (0, op),
            };
            let index = rec.spans.len();
            rec.serial += 1;
            rec.spans.push(Span {
                id: (rec.thread << THREAD_SHIFT) | rec.serial,
                parent,
                op,
                name,
                start_ns: 0,
                end_ns: 0,
                thread: rec.thread,
            });
            rec.open.push(index);
            // Read the clock last, so the bookkeeping above is outside the
            // span.
            rec.spans[index].start_ns = now_ns();
            index
        })
    });
    Guard { index: Some(index) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end = now_ns();
        REC.with(|rec| {
            if let Some(rec) = rec.borrow_mut().as_mut() {
                rec.spans[index].end_ns = end;
                rec.open.pop();
            }
        });
    }
}

/// Hands this thread's finished spans to the process-wide sink. Client
/// threads call it when their loop is over (no span may be open).
pub fn flush_thread() {
    let spans = REC.with(|rec| {
        rec.borrow_mut()
            .as_mut()
            .map(|r| std::mem::replace(&mut r.spans, Vec::with_capacity(1 << 16)))
    });
    if let Some(spans) = spans {
        SINK.lock()
            .expect("span sink: a recording thread panicked")
            .extend(spans);
    }
}

/// Takes everything recorded so far (flushing the calling thread first).
pub fn take_all() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *SINK.lock().expect("span sink: a recording thread panicked"))
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other, start before or end
/// after the parent, and come from other threads; the covered part is the
/// union of their intervals clipped to the parent's.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Mean self time (ns) and count of the root spans named `name`.
pub fn mean_self_ns(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> (f64, usize) {
    let (mut sum, mut n) = (0u64, 0usize);
    for s in spans.iter().filter(|s| s.parent == 0 && s.name == name) {
        sum += selfs.get(&s.id).copied().unwrap_or(0);
        n += 1;
    }
    (crate::stats::ratio(sum as f64, n as f64), n)
}

/// Tests that record spans, or run repetitions that might, hold this: the
/// switch and the sink are process-wide.
#[cfg(test)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64, thread: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            start_ns: start,
            end_ns: end,
            thread,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span(1, 0, 100, 200, 1),
            // Two children overlapping each other: cover 110..150.
            span(2, 1, 110, 140, 1),
            span(3, 1, 130, 150, 1),
            // A child on another thread, ending after the parent: clipped
            // to 190..200.
            span(4, 1, 190, 260, 2),
            // A grandchild reduces its own parent, not the root.
            span(5, 2, 115, 120, 1),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 30 - 5);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 70);
        assert_eq!(st[&5], 5);
        let (mean, n) = mean_self_ns(&spans, &st, "t");
        assert_eq!((mean, n), (50.0, 1));
    }

    #[test]
    fn a_child_wholly_outside_its_parent_covers_nothing() {
        let spans = vec![span(1, 0, 100, 200, 1), span(2, 1, 300, 400, 2)];
        assert_eq!(self_times(&spans)[&1], 100);
        // Children that together exceed the parent leave zero, not a wrap.
        let spans = vec![span(1, 0, 100, 200, 1), span(2, 1, 50, 500, 2)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn recorded_spans_nest_and_link_to_their_parent() {
        let _serial = test_lock();
        let mine = std::thread::spawn(|| {
            set_enabled(true);
            {
                let _op = enter("core.append", 42);
                let _dev = enter("device.write", 0);
            }
            // Ids stay unique after the thread has handed its spans over.
            let first_batch = REC.with(|rec| {
                rec.borrow_mut()
                    .as_mut()
                    .map(|r| std::mem::take(&mut r.spans))
                    .unwrap_or_default()
            });
            {
                let _op = enter("core.read", 43);
            }
            set_enabled(false);
            REC.with(|rec| {
                if let Some(r) = rec.borrow_mut().as_mut() {
                    r.spans.splice(0..0, first_batch);
                }
            });
            REC.with(|rec| rec.borrow_mut().take().map(|r| r.spans))
                .unwrap_or_default()
        })
        .join()
        .expect("recording thread");
        assert_eq!(mine.len(), 3);
        assert_eq!((mine[0].parent, mine[0].op), (0, 42));
        assert_eq!((mine[1].parent, mine[1].op), (mine[0].id, 42));
        assert_eq!((mine[2].parent, mine[2].op), (0, 43));
        assert!(mine[2].id != mine[0].id && mine[2].id != mine[1].id);
        assert!(mine[1].start_ns >= mine[0].start_ns && mine[1].end_ns <= mine[0].end_ns);
        assert!(!enabled());
        let inert = enter("off", 1);
        assert!(inert.index.is_none());
    }
}
