//! Lock-order validator ("lockdep") backing the [`crate::sync`] wrappers.
//!
//! Modeled on the kernel's lock-order validator: every lock belongs to a
//! *class* (keyed by creation site, or by an explicit name given via
//! `Mutex::with_class`), each thread keeps a stack of the classes it
//! currently holds, and every time a thread acquires lock `B` while
//! holding lock `A` the directed edge `A -> B` is recorded in a global
//! graph. If a new edge would close a cycle — some other code path
//! already acquired the locks in the opposite order — the acquisition
//! panics immediately with both acquisition sites and backtraces, even
//! though this particular schedule did not deadlock. That is the whole
//! point: the validator turns a probabilistic deadlock into a
//! deterministic test failure.
//!
//! The validator is **off by default** and enabled by `CLIO_LOCKDEP=1`
//! in the environment (or [`force_enable`] from tests). When off, the
//! only cost per lock operation is one relaxed atomic load and a
//! predictable branch; nothing is allocated and no thread-local is
//! touched.
//!
//! Two refinements keep the graph honest for this workspace:
//!
//! * Edges between the *same* class are ignored. Shard pools create many
//!   locks at one site on purpose (one class).
//! * Classes can be marked *io-safe* (`with_class_io`): the device layer
//!   calls [`assert_no_locks_held`] before every blocking write, and
//!   only locks of classes *not* marked io-safe trip that assert. The
//!   group-commit leader legitimately holds the append-state mutex
//!   across the device write it is committing; nothing else should be.
//!
//! This module deliberately uses raw [`std::sync`] primitives for its own
//! registry and graph — instrumenting the instrumentation would recurse.

use std::backtrace::Backtrace;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock, PoisonError};

const MODE_UNKNOWN: u8 = 0;
const MODE_OFF: u8 = 1;
const MODE_ON: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNKNOWN);

/// Whether lock-order tracking is active for this process.
///
/// First call consults `CLIO_LOCKDEP` (any value other than empty or
/// `0` enables); the answer is then cached in an atomic, so the hot
/// path is a single relaxed load.
#[inline]
pub fn enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_ON => true,
        MODE_OFF => false,
        _ => init_mode(),
    }
}

#[cold]
fn init_mode() -> bool {
    let on = std::env::var("CLIO_LOCKDEP")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    MODE.store(if on { MODE_ON } else { MODE_OFF }, Ordering::Relaxed);
    on
}

/// Turn the validator on for the rest of the process, regardless of the
/// environment. Test hook; sticky.
#[doc(hidden)]
pub fn force_enable() {
    MODE.store(MODE_ON, Ordering::Relaxed);
}

/// Per-lock metadata embedded in every `sync::Mutex`.
///
/// The class id is resolved lazily on first tracked acquisition and
/// cached (`0` = unresolved, else `class + 1`), so lock construction
/// stays `const` and allocation-free.
pub(crate) struct LockMeta {
    name: Option<&'static str>,
    io_safe: bool,
    site: &'static Location<'static>,
    class: AtomicU32,
}

impl LockMeta {
    pub(crate) const fn new(
        site: &'static Location<'static>,
        name: Option<&'static str>,
        io_safe: bool,
    ) -> LockMeta {
        LockMeta {
            name,
            io_safe,
            site,
            class: AtomicU32::new(0),
        }
    }
}

#[derive(Clone, Copy)]
struct ClassInfo {
    name: Option<&'static str>,
    io_safe: bool,
    site: &'static Location<'static>,
}

fn class_label(info: ClassInfo) -> String {
    match info.name {
        Some(n) => format!("`{n}` (created at {})", info.site),
        None => format!("`{}`", info.site),
    }
}

#[derive(PartialEq, Eq, Hash)]
enum ClassKey {
    Named(&'static str),
    Site(&'static str, u32, u32),
}

#[derive(Default)]
struct Registry {
    classes: Vec<ClassInfo>,
    by_key: HashMap<ClassKey, u32>,
}

static REGISTRY: OnceLock<StdMutex<Registry>> = OnceLock::new();

fn registry() -> &'static StdMutex<Registry> {
    REGISTRY.get_or_init(|| StdMutex::new(Registry::default()))
}

fn class_info(class: u32) -> ClassInfo {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.classes[class as usize]
}

/// Resolve (and cache) the class id for a lock.
fn class_of(meta: &LockMeta) -> u32 {
    let cached = meta.class.load(Ordering::Relaxed);
    if cached != 0 {
        return cached - 1;
    }
    register_class(meta)
}

#[cold]
fn register_class(meta: &LockMeta) -> u32 {
    let key = match meta.name {
        Some(n) => ClassKey::Named(n),
        None => ClassKey::Site(meta.site.file(), meta.site.line(), meta.site.column()),
    };
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let next = reg.classes.len() as u32;
    let id = *reg.by_key.entry(key).or_insert(next);
    if id == next {
        reg.classes.push(ClassInfo {
            name: meta.name,
            io_safe: meta.io_safe,
            site: meta.site,
        });
    }
    drop(reg);
    meta.class.store(id + 1, Ordering::Relaxed);
    id
}

/// One recorded "held A, then acquired B" ordering.
struct Edge {
    /// Where the already-held lock had been acquired.
    holder_at: &'static Location<'static>,
    /// Where the new lock was acquired.
    acquire_at: &'static Location<'static>,
    /// Backtrace of the acquisition that first created this edge.
    backtrace: String,
}

#[derive(Default)]
struct Graph {
    edges: HashMap<(u32, u32), Edge>,
    adj: HashMap<u32, Vec<u32>>,
}

static GRAPH: OnceLock<StdMutex<Graph>> = OnceLock::new();

fn graph() -> &'static StdMutex<Graph> {
    GRAPH.get_or_init(|| StdMutex::new(Graph::default()))
}

struct HeldEntry {
    class: u32,
    at: &'static Location<'static>,
}

thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
}

/// Token carried by a lock guard: which class (if any) to pop on drop.
#[derive(Default)]
pub(crate) struct Held {
    class: Option<u32>,
}

impl Held {
    pub(crate) const fn none() -> Held {
        Held { class: None }
    }
}

/// Record a blocking acquisition: check for an ordering cycle against
/// everything this thread already holds, then push onto the held stack.
///
/// Called *before* blocking on the real lock so an acquisition that
/// would complete a deadlock cycle panics instead of hanging.
pub(crate) fn on_acquire(meta: &LockMeta, at: &'static Location<'static>) -> Held {
    if !enabled() {
        return Held::none();
    }
    let class = class_of(meta);
    push_with_edges(class, at);
    Held { class: Some(class) }
}

/// Pop a guard's class from the held stack.
pub(crate) fn on_release(held: &mut Held) {
    let Some(class) = held.class.take() else {
        return;
    };
    HELD.with(|h| {
        let mut stack = h.borrow_mut();
        if let Some(i) = stack.iter().rposition(|e| e.class == class) {
            stack.remove(i);
        }
    });
}

/// Condvar support: release the guard's tracking before blocking in
/// `wait`, remembering the class for re-acquisition.
pub(crate) fn on_unlock_for_wait(held: &mut Held) -> Option<u32> {
    let class = held.class.take();
    if let Some(c) = class {
        let mut h = Held { class: Some(c) };
        on_release(&mut h);
    }
    class
}

/// Condvar support: the mutex was re-acquired after a wait.
pub(crate) fn on_wait_reacquire(class: Option<u32>, at: &'static Location<'static>) -> Held {
    let Some(class) = class else {
        return Held::none();
    };
    push_with_edges(class, at);
    Held { class: Some(class) }
}

fn push_with_edges(class: u32, at: &'static Location<'static>) {
    HELD.with(|h| {
        let mut stack = h.borrow_mut();
        for held in stack.iter() {
            if held.class != class {
                record_edge(held.class, held.at, class, at);
            }
        }
        stack.push(HeldEntry { class, at });
    });
}

/// Record `from -> to`; panic if the reverse ordering is already
/// reachable (the new edge would close a cycle).
fn record_edge(
    from: u32,
    holder_at: &'static Location<'static>,
    to: u32,
    acquire_at: &'static Location<'static>,
) {
    let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
    if g.edges.contains_key(&(from, to)) {
        return;
    }
    if let Some(path) = find_path(&g, to, from) {
        let report = cycle_report(&g, &path, from, holder_at, to, acquire_at);
        drop(g);
        panic!("{report}");
    }
    g.edges.insert(
        (from, to),
        Edge {
            holder_at,
            acquire_at,
            backtrace: Backtrace::force_capture().to_string(),
        },
    );
    g.adj.entry(from).or_default().push(to);
}

/// Directed path `start -> ... -> goal` over recorded edges, if any.
fn find_path(g: &Graph, start: u32, goal: u32) -> Option<Vec<u32>> {
    let mut parent: HashMap<u32, u32> = HashMap::new();
    let mut stack = vec![start];
    parent.insert(start, start);
    while let Some(n) = stack.pop() {
        if n == goal {
            let mut path = vec![goal];
            let mut cur = goal;
            while cur != start {
                cur = parent[&cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &next in g.adj.get(&n).into_iter().flatten() {
            parent.entry(next).or_insert_with(|| {
                stack.push(next);
                n
            });
        }
    }
    None
}

fn cycle_report(
    g: &Graph,
    path: &[u32],
    from: u32,
    holder_at: &'static Location<'static>,
    to: u32,
    acquire_at: &'static Location<'static>,
) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "lockdep: lock-order inversion detected");
    let _ = writeln!(
        out,
        "  this thread holds {} (acquired at {holder_at})",
        class_label(class_info(from)),
    );
    let _ = writeln!(
        out,
        "  and is acquiring {} at {acquire_at}",
        class_label(class_info(to)),
    );
    let _ = writeln!(out, "  but the opposite ordering was already recorded:");
    for pair in path.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if let Some(e) = g.edges.get(&(a, b)) {
            let _ = writeln!(
                out,
                "    {} (held, acquired at {}) -> {} (acquired at {})",
                class_label(class_info(a)),
                e.holder_at,
                class_label(class_info(b)),
                e.acquire_at,
            );
            let _ = writeln!(out, "    backtrace of that prior acquisition:");
            for line in e.backtrace.lines() {
                let _ = writeln!(out, "      {line}");
            }
        }
    }
    let _ = writeln!(out, "  backtrace of the current acquisition:");
    for line in Backtrace::force_capture().to_string().lines() {
        let _ = writeln!(out, "    {line}");
    }
    out
}

/// Panic if this thread holds any lock whose class is not io-safe.
///
/// The device layer calls this at the top of every blocking write so
/// "lock held across device I/O" becomes a deterministic test failure
/// under `CLIO_LOCKDEP=1`. Classes that legitimately span device writes
/// (the append-state mutex, the volume sequence) opt out via
/// `with_class_io`.
pub fn assert_no_locks_held(ctx: &str) {
    if !enabled() {
        return;
    }
    let offending: Vec<String> = HELD.with(|h| {
        h.borrow()
            .iter()
            .filter(|e| !class_info(e.class).io_safe)
            .map(|e| {
                format!(
                    "    {} acquired at {}",
                    class_label(class_info(e.class)),
                    e.at
                )
            })
            .collect()
    });
    if !offending.is_empty() {
        panic!(
            "lockdep: non-io lock(s) held entering blocking device I/O ({ctx}):\n{}\n  \
             mark the class with `with_class_io` only if holding it across \
             device writes is intended",
            offending.join("\n"),
        );
    }
}

/// Number of tracked locks the current thread holds. Test hook.
#[doc(hidden)]
pub fn held_count() -> usize {
    HELD.with(|h| h.borrow().len())
}
