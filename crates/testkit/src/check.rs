//! `check`: a loom-lite deterministic concurrency model checker with a
//! vector-clock happens-before race detector. Std-only.
//!
//! A [`Checker`] runs a *model* — a closure spawning 2–4 threads via
//! [`spawn`] that exercise a concurrency protocol built from
//! [`crate::sync`] primitives, [`crate::sync::atomic`] wrappers, and
//! [`RaceCell`]s for plain shared data — under a cooperative scheduler
//! that serializes the threads and explores distinct interleavings:
//!
//! * every lock acquisition/release, condvar wait/notify, atomic access,
//!   `RaceCell` access, spawn and join is a *scheduling point*;
//! * small state spaces are swept by bounded-preemption DFS over the
//!   schedule tree; larger ones by a seeded random walk whose failing
//!   schedules replay byte-identically from the printed
//!   `CLIO_CHECK_REPLAY=<seed>:<index>` line (the `CLIO_PROP_SEED`
//!   convention);
//! * a vector-clock checker maintains happens-before
//!   across lock release→acquire, atomic `Release`→`Acquire`, and
//!   spawn/join edges, and fails the schedule with **both** access sites
//!   when two accesses to a [`RaceCell`] conflict without an ordering
//!   edge;
//! * a schedule where every unfinished thread is blocked fails as a
//!   deadlock (this is how lost condvar wakeups surface: in a checked
//!   run `notify_all` wakes only threads already waiting, exactly the
//!   real semantics).
//!
//! Instrumentation is inert outside a checked run: one relaxed atomic
//! load on the fast path, and only threads created by [`spawn`] inside a
//! running model participate. Models must create their locks, atomics
//! and cells inside the model closure (per-schedule state is keyed by
//! object address). The checker's own internals use raw `std::sync`
//! primitives so they never feed back into themselves.
//!
//! What lockdep ([`crate::lockdep`]) cannot see — races on data the
//! locks were supposed to protect, misuse of atomic orderings, lost
//! wakeups — is precisely what this module checks; lockdep still covers
//! lock-order cycles across the *real* workload, which a hand-written
//! model cannot.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{self, AssertUnwindSafe, Location};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, Once, PoisonError};
use std::time::{Duration, Instant};

use crate::rng::StdRng;
use crate::vclock::VClock;

// ---------------------------------------------------------------------------
// Thread registry: which threads are model threads, and for which run.

/// Count of live checked runs process-wide; the fast-path gate.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

struct ThreadCtx {
    sched: Arc<Sched>,
    tid: usize,
}

/// Whether any checked run is live: the one relaxed load and branch a
/// hook pays outside a checked run. Every hook below tests it inline and
/// leaves the rest to a `#[cold]`, out-of-line model path, so the fast
/// path spills no register and sets up no frame for a path it never runs.
#[inline(always)]
fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// The scheduler and model-thread id of the current thread, if it is a
/// model thread of a live checked run.
fn current() -> Option<(Arc<Sched>, usize)> {
    if !active() {
        return None;
    }
    CTX.try_with(|c| c.borrow().as_ref().map(|t| (t.sched.clone(), t.tid)))
        .ok()
        .flatten()
}

/// The model path of a hook, run only inside a checked run: `f` on the
/// current thread's scheduler, or `None` when this is not a model thread.
#[cold]
#[inline(never)]
fn model<R>(f: impl FnOnce(&Sched, usize) -> R) -> Option<R> {
    current().map(|(s, my)| f(&s, my))
}

/// Whether the current thread is a model thread of a live checked run.
#[inline]
pub(crate) fn is_model() -> bool {
    active() && model(|_, _| ()).is_some()
}

/// Quiet panic payload used to tear a model thread down after the
/// schedule has already been failed (or finished) elsewhere.
struct Abort;

/// Model-thread panics are reported by the controller with schedule
/// context; suppress the default hook's per-thread noise for them.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let model = CTX.try_with(|c| c.borrow().is_some()).unwrap_or(false);
            if !model {
                prev(info);
            }
        }));
    });
}

fn panic_msg(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Per-schedule scheduler state.

type Site = &'static Location<'static>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Block {
    Runnable,
    /// Waiting for the lock at this address.
    Lock(usize),
    /// Waiting on the condvar at this address.
    Cv(usize),
    Join(usize),
    Finished,
}

struct ThreadState {
    block: Block,
    clock: VClock,
    /// Last scheduling-point site, for deadlock reports.
    at: Site,
}

#[derive(Default)]
struct LockSt {
    holder: Option<usize>,
    clock: VClock,
}

struct Access {
    tid: usize,
    epoch: u32,
    at: Site,
}

struct CellSt {
    created: Site,
    write: Option<Access>,
    reads: Vec<Access>,
}

/// How choices are made at each scheduling point.
enum Plan {
    /// Replay `prefix`, then always pick candidate 0 (the canonical
    /// "keep running the current thread" default).
    Dfs { prefix: Vec<u8> },
    /// Uniform choice from a seeded generator.
    Random { rng: StdRng },
}

/// One recorded scheduling decision.
struct DecisionRec {
    /// Candidate tids in canonical order: the previously running thread
    /// first when it is still runnable, then the rest ascending.
    cands: Vec<u8>,
    /// Index into `cands` that was taken.
    chosen: u8,
    prev: u8,
    prev_runnable: bool,
    /// Preemptions consumed before this decision.
    preempt_before: u32,
}

struct SchedState {
    threads: Vec<ThreadState>,
    running: usize,
    /// Spawned minus finished model threads.
    live: usize,
    aborting: bool,
    done: bool,
    failure: Option<String>,
    trace: Vec<DecisionRec>,
    preemptions: u32,
    steps: usize,
    plan: Plan,
    locks: HashMap<usize, LockSt>,
    atomics: HashMap<usize, VClock>,
    cells: HashMap<usize, CellSt>,
}

struct Sched {
    state: StdMutex<SchedState>,
    cv: StdCondvar,
    max_steps: usize,
}

type StGuard<'a> = std::sync::MutexGuard<'a, SchedState>;

enum Choice {
    Chosen,
    /// The schedule has been failed (deadlock/livelock/divergence) or
    /// every thread finished; the caller must not keep running.
    Stop,
}

fn blocked_desc(b: Block) -> String {
    match b {
        Block::Runnable => "runnable".to_string(),
        Block::Lock(_) => "blocked acquiring a lock".to_string(),
        Block::Cv(_) => "waiting on a Condvar".to_string(),
        Block::Join(t) => format!("joining thread t{t}"),
        Block::Finished => "finished".to_string(),
    }
}

/// Tears the calling model thread down once its schedule has stopped. A
/// thread already unwinding (a `Drop` reached a scheduling point) gets its
/// guard back instead — a second panic would abort the process and lose
/// the failure report — and runs on unscheduled: the real locks decide.
fn abort(st: StGuard<'_>) -> StGuard<'_> {
    if std::thread::panicking() {
        return st;
    }
    drop(st);
    panic::panic_any(Abort)
}

impl Sched {
    fn st(&self) -> StGuard<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a failure (first one wins) and tears the schedule down.
    fn fail(&self, st: &mut SchedState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Picks the next thread to run at a scheduling point reached by
    /// `my` (which holds the run token). Records the decision.
    fn choose(&self, st: &mut SchedState, my: usize) -> Choice {
        st.steps += 1;
        if st.steps > self.max_steps {
            let msg = format!(
                "schedule exceeded {} scheduling points (livelock? unbounded retry loop?)",
                self.max_steps
            );
            self.fail(st, msg);
            return Choice::Stop;
        }
        let prev_runnable = st.threads[my].block == Block::Runnable;
        let mut cands: Vec<u8> = Vec::with_capacity(st.threads.len());
        if prev_runnable {
            cands.push(my as u8);
        }
        for (tid, t) in st.threads.iter().enumerate() {
            if (tid != my || !prev_runnable) && t.block == Block::Runnable {
                cands.push(tid as u8);
            }
        }
        if cands.is_empty() {
            if st.live == 0 {
                st.done = true;
                self.cv.notify_all();
                return Choice::Stop;
            }
            let mut msg = String::from("deadlock: every unfinished thread is blocked\n");
            for (tid, t) in st.threads.iter().enumerate() {
                if t.block != Block::Finished {
                    msg.push_str(&format!(
                        "  t{tid}: {} at {}\n",
                        blocked_desc(t.block),
                        t.at
                    ));
                }
            }
            msg.pop();
            self.fail(st, msg);
            return Choice::Stop;
        }
        let depth = st.trace.len();
        let idx = match &mut st.plan {
            Plan::Dfs { prefix } => {
                if depth < prefix.len() {
                    let want = prefix[depth] as usize;
                    if want >= cands.len() {
                        let msg = format!(
                            "schedule diverged from its replay prefix at decision {depth} \
                             (wanted candidate {want} of {}): the model is not deterministic",
                            cands.len()
                        );
                        self.fail(st, msg);
                        return Choice::Stop;
                    }
                    want
                } else {
                    0
                }
            }
            // A lone candidate is no choice: drawing for it would make
            // every later choice depend on how many such points came
            // before, so a scheduling point added to single-threaded
            // setup would re-deal the whole schedule.
            Plan::Random { .. } if cands.len() == 1 => 0,
            Plan::Random { rng } => (rng.next_u64() % cands.len() as u64) as usize,
        };
        let next = cands[idx] as usize;
        st.trace.push(DecisionRec {
            chosen: idx as u8,
            prev: my as u8,
            prev_runnable,
            preempt_before: st.preemptions,
            cands,
        });
        if prev_runnable && next != my {
            st.preemptions += 1;
        }
        st.running = next;
        if next != my {
            self.cv.notify_all();
        }
        Choice::Chosen
    }

    /// Blocks until it is `my`'s turn to run (or the schedule aborts).
    fn park<'a>(&'a self, mut st: StGuard<'a>, my: usize) -> StGuard<'a> {
        loop {
            if st.aborting {
                return abort(st);
            }
            if st.running == my {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A scheduling point: decide who runs next, then wait for our turn.
    fn yield_and_park<'a>(&'a self, mut st: StGuard<'a>, my: usize) -> StGuard<'a> {
        if st.aborting {
            return abort(st);
        }
        match self.choose(&mut st, my) {
            Choice::Chosen => self.park(st, my),
            Choice::Stop => abort(st),
        }
    }

    /// Pre-op scheduling point at `site`.
    fn yield_at(&self, my: usize, site: Site) {
        let mut st = self.st();
        st.threads[my].at = site;
        drop(self.yield_and_park(st, my));
    }

    // -- locks --------------------------------------------------------------

    fn lock_acquire(&self, my: usize, addr: usize, site: Site) {
        let mut st = self.st();
        st.threads[my].at = site;
        let mut st = self.yield_and_park(st, my);
        loop {
            if st.aborting {
                return;
            }
            let l = st.locks.entry(addr).or_default();
            if l.holder.is_none() {
                l.holder = Some(my);
                let lc = l.clock.clone();
                st.threads[my].clock.join(&lc);
                return;
            }
            st.threads[my].block = Block::Lock(addr);
            st = self.yield_and_park(st, my);
        }
    }

    fn lock_release(&self, my: usize, addr: usize) {
        let mut st = self.st();
        let tc = st.threads[my].clock.clone();
        if let Some(l) = st.locks.get_mut(&addr) {
            l.clock.join(&tc);
            l.holder = None;
        }
        st.threads[my].clock.tick(my);
        for t in st.threads.iter_mut() {
            if t.block == Block::Lock(addr) {
                t.block = Block::Runnable;
            }
        }
    }

    // -- condvars -----------------------------------------------------------

    /// Blocks on `cv_addr`; the caller has already released the mutex
    /// (with no scheduling point in between, so release+wait is atomic
    /// exactly like the real condvar).
    fn cv_wait(&self, my: usize, cv_addr: usize, site: Site) {
        let mut st = self.st();
        st.threads[my].at = site;
        st.threads[my].block = Block::Cv(cv_addr);
        drop(self.yield_and_park(st, my));
    }

    /// Wakes every thread waiting on `cv_addr`. Lost wakeups are modeled
    /// faithfully: a thread not yet waiting stays blocked, and an
    /// all-blocked schedule fails as deadlock.
    fn cv_notify(&self, my: usize, cv_addr: usize, site: Site) {
        let mut st = self.st();
        st.threads[my].at = site;
        let mut st = self.yield_and_park(st, my);
        for t in st.threads.iter_mut() {
            if t.block == Block::Cv(cv_addr) {
                t.block = Block::Runnable;
            }
        }
    }

    // -- atomics ------------------------------------------------------------

    fn atomic_op(&self, my: usize, addr: usize, acq: bool, rel: bool, site: Site) {
        let mut st = self.st();
        st.threads[my].at = site;
        let mut st = self.yield_and_park(st, my);
        if acq {
            let oc = st.atomics.entry(addr).or_default().clone();
            st.threads[my].clock.join(&oc);
        }
        if rel {
            let tc = st.threads[my].clock.clone();
            st.atomics.entry(addr).or_default().join(&tc);
            st.threads[my].clock.tick(my);
        }
    }

    // -- plain (racy) accesses ----------------------------------------------

    fn cell_access(&self, my: usize, addr: usize, write: bool, created: Site, site: Site) {
        let mut st = self.st();
        st.threads[my].at = site;
        let mut st = self.yield_and_park(st, my);
        let clock = st.threads[my].clock.clone();
        let cell = st.cells.entry(addr).or_insert_with(|| CellSt {
            created,
            write: None,
            reads: Vec::new(),
        });
        let kind = if write { "write" } else { "read" };
        let mut race: Option<String> = None;
        if let Some(w) = &cell.write {
            if w.tid != my && !clock.saw(w.tid, w.epoch) {
                race = Some(race_msg(cell.created, "write", w, kind, my, site));
            }
        }
        if write && race.is_none() {
            for r in &cell.reads {
                if r.tid != my && !clock.saw(r.tid, r.epoch) {
                    race = Some(race_msg(cell.created, "read", r, kind, my, site));
                    break;
                }
            }
        }
        if let Some(msg) = race {
            self.fail(&mut st, msg);
            drop(abort(st));
            return;
        }
        let epoch = st.threads[my].clock.tick(my);
        let cell = st
            .cells
            .get_mut(&addr)
            .expect("invariant: cell state was just inserted");
        let acc = Access {
            tid: my,
            epoch,
            at: site,
        };
        if write {
            cell.write = Some(acc);
            cell.reads.clear();
        } else {
            cell.reads.retain(|r| r.tid != my);
            cell.reads.push(acc);
        }
    }

    // -- thread lifecycle ---------------------------------------------------

    fn register_thread(&self, parent: usize, site: Site) -> usize {
        let mut st = self.st();
        let tid = st.threads.len();
        let mut clock = st.threads[parent].clock.clone();
        clock.tick(tid);
        st.threads[parent].clock.tick(parent);
        st.threads.push(ThreadState {
            block: Block::Runnable,
            clock,
            at: site,
        });
        st.live += 1;
        tid
    }

    fn join_wait(&self, my: usize, child: usize, site: Site) {
        let mut st = self.st();
        st.threads[my].at = site;
        let mut st = self.yield_and_park(st, my);
        loop {
            if st.aborting || st.threads[child].block == Block::Finished {
                let cc = st.threads[child].clock.clone();
                st.threads[my].clock.join(&cc);
                return;
            }
            st.threads[my].block = Block::Join(child);
            st = self.yield_and_park(st, my);
        }
    }

    fn first_park(&self, my: usize) {
        let st = self.st();
        drop(self.park(st, my));
    }

    /// Marks `my` finished, records a user panic as the schedule's
    /// failure, and hands the run token onward. Never panics (it runs
    /// on the far side of the model's `catch_unwind`).
    fn finish(&self, my: usize, user_panic: Option<String>) {
        let mut st = self.st();
        st.threads[my].block = Block::Finished;
        st.live -= 1;
        for t in st.threads.iter_mut() {
            if t.block == Block::Join(my) {
                t.block = Block::Runnable;
            }
        }
        if let Some(msg) = user_panic {
            self.fail(&mut st, format!("thread t{my} panicked: {msg}"));
        }
        if st.aborting {
            if st.live == 0 {
                st.done = true;
            }
            self.cv.notify_all();
            return;
        }
        let _ = self.choose(&mut st, my);
    }
}

fn race_msg(created: Site, k1: &str, prior: &Access, k2: &str, tid: usize, site: Site) -> String {
    format!(
        "data race on RaceCell created at {created}:\n  {k1} by thread t{} at {}\n  {k2} by thread t{tid} at {site}\n  no happens-before edge orders these accesses",
        prior.tid, prior.at
    )
}

// ---------------------------------------------------------------------------
// Instrumentation hooks (called from crate::sync and crate::sync::atomic).

#[inline]
#[track_caller]
pub(crate) fn mutex_lock(addr: usize) -> bool {
    let site = Location::caller();
    active() && model(move |s, my| s.lock_acquire(my, addr, site)).is_some()
}

#[inline]
pub(crate) fn mutex_unlock(addr: usize) {
    if active() {
        model(move |s, my| s.lock_release(my, addr));
    }
}

/// Model-level condvar wait; the caller must have dropped the mutex
/// guard immediately before (no scheduling point runs in between).
/// Only call when [`is_model`].
#[track_caller]
pub(crate) fn condvar_wait(cv_addr: usize) {
    let site = Location::caller();
    model(move |s, my| s.cv_wait(my, cv_addr, site));
}

/// Wakes every model thread waiting on `cv_addr`; returns true when the
/// notify was handled at model level.
#[inline]
#[track_caller]
pub(crate) fn condvar_notify(cv_addr: usize) -> bool {
    let site = Location::caller();
    active() && model(move |s, my| s.cv_notify(my, cv_addr, site)).is_some()
}

/// A bare scheduling point, for a polling loop whose condition the checker
/// does not see (a [`crate::sync::atomic::RelaxedI64`] gauge, say): without
/// one, the thread it waits for could never run. Outside a checked run it
/// is one relaxed load.
#[inline]
#[track_caller]
pub fn yield_point() {
    if active() {
        let site = Location::caller();
        model(move |s, my| s.yield_at(my, site));
    }
}

/// An atomic access with the given acquire/release effect.
#[inline]
#[track_caller]
pub(crate) fn atomic_access(addr: usize, acq: bool, rel: bool) {
    if active() {
        let site = Location::caller();
        model(move |s, my| s.atomic_op(my, addr, acq, rel, site));
    }
}

// ---------------------------------------------------------------------------
// RaceCell: plain shared data, checked for happens-before.

/// A cell of plain (non-atomic, non-lock-protected) shared data for
/// model code. Under a checked run every access is a scheduling point
/// and is checked against every concurrent access via vector clocks: two
/// accesses to the same cell, at least one a write, with no
/// happens-before edge between them fail the schedule with both sites.
///
/// Outside a checked run it degrades to a mutex-protected cell (the
/// mutex is an implementation detail — it models *unsynchronized* data;
/// the point is the checker, not the mutex).
pub struct RaceCell<T> {
    created: Site,
    inner: StdMutex<T>,
}

impl<T: Clone> RaceCell<T> {
    /// Creates a cell; the creation site appears in race reports.
    #[track_caller]
    pub fn new(value: T) -> RaceCell<T> {
        RaceCell {
            created: Location::caller(),
            inner: StdMutex::new(value),
        }
    }

    fn addr(&self) -> usize {
        (self as *const Self).cast::<()>() as usize
    }

    /// Reads the current value (a plain read, race-checked).
    #[track_caller]
    pub fn read(&self) -> T {
        if let Some((s, my)) = current() {
            s.cell_access(my, self.addr(), false, self.created, Location::caller());
        }
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Overwrites the value (a plain write, race-checked).
    #[track_caller]
    pub fn write(&self, value: T) {
        if let Some((s, my)) = current() {
            s.cell_access(my, self.addr(), true, self.created, Location::caller());
        }
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = value;
    }

    /// Read-modify-write; checked as a write (conflicts with both
    /// concurrent reads and writes).
    #[track_caller]
    pub fn update(&self, f: impl FnOnce(&mut T)) {
        if let Some((s, my)) = current() {
            s.cell_access(my, self.addr(), true, self.created, Location::caller());
        }
        f(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// Cell state is keyed by address, and a model may free a cell and then
/// allocate a fresh one at the reused address (a single-flight cache
/// does: a second miss wave's `Flight` can land on the first wave's
/// freed allocation). The two objects have disjoint lifetimes — the
/// allocator's free/alloc pair orders them — so the dead cell's access
/// history must not alias the new cell's. Retire it here; dropping is
/// not an access and not a scheduling point.
impl<T> Drop for RaceCell<T> {
    fn drop(&mut self) {
        if let Some((s, _)) = current() {
            s.st()
                .cells
                .remove(&((self as *const Self).cast::<()>() as usize));
        }
    }
}

// ---------------------------------------------------------------------------
// spawn/join for model threads.

/// Handle to a thread created by [`spawn`].
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    model: Option<(Arc<Sched>, usize)>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish, yielding to the scheduler under
    /// a checked run. Mirrors [`std::thread::JoinHandle::join`].
    #[track_caller]
    pub fn join(self) -> std::thread::Result<T> {
        if let Some((sched, child)) = &self.model {
            if let Some((_, my)) = current() {
                sched.join_wait(my, *child, Location::caller());
            }
        }
        self.inner.join()
    }
}

/// Spawns a thread. Inside a checked run the thread becomes a model
/// thread under the cooperative scheduler (with a spawn happens-before
/// edge); outside one this is exactly [`std::thread::spawn`].
#[track_caller]
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let Some((sched, my)) = current() else {
        return JoinHandle {
            inner: std::thread::spawn(f),
            model: None,
        };
    };
    let site: Site = Location::caller();
    let tid = sched.register_thread(my, site);
    let s2 = sched.clone();
    let inner = std::thread::Builder::new()
        .name(format!("clio-model-t{tid}"))
        .spawn(move || model_main(s2, tid, f))
        .expect("invariant: model thread spawn failed");
    // Scheduling point after registration: the child may run first.
    sched.yield_at(my, site);
    JoinHandle {
        inner,
        model: Some((sched, tid)),
    }
}

fn model_main<T>(sched: Arc<Sched>, tid: usize, f: impl FnOnce() -> T) -> T {
    install_quiet_hook();
    let _ = CTX.try_with(|c| {
        *c.borrow_mut() = Some(ThreadCtx {
            sched: sched.clone(),
            tid,
        });
    });
    let s2 = sched.clone();
    let r = panic::catch_unwind(AssertUnwindSafe(move || {
        s2.first_park(tid);
        f()
    }));
    let user_panic = match &r {
        Ok(_) => None,
        Err(p) if p.is::<Abort>() => None,
        Err(p) => Some(panic_msg(p.as_ref())),
    };
    sched.finish(tid, user_panic);
    match r {
        Ok(v) => v,
        Err(p) => panic::resume_unwind(p),
    }
}

// ---------------------------------------------------------------------------
// The controller: schedule enumeration, replay, reporting.

/// What one explored schedule produced.
struct Outcome {
    failure: Option<String>,
    decisions: Vec<DecisionRec>,
}

impl Outcome {
    fn tids(&self) -> Vec<u8> {
        self.decisions
            .iter()
            .map(|d| d.cands[d.chosen as usize])
            .collect()
    }
    fn choices(&self) -> Vec<u8> {
        self.decisions.iter().map(|d| d.chosen).collect()
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn dot_join(xs: &[u8]) -> String {
    xs.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

/// Per-schedule seed for the random walk: a pure function of the
/// checker seed and the schedule index, so `CLIO_CHECK_REPLAY` can
/// regenerate any one schedule.
fn schedule_seed(seed: u64, index: u64) -> u64 {
    let mut s = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    crate::rng::splitmix64(&mut s)
}

/// After a schedule, the deepest decision with an untried alternative
/// within the preemption bound; `None` when the bounded tree is
/// exhausted.
fn next_dfs_prefix(trace: &[DecisionRec], bound: u32) -> Option<Vec<u8>> {
    for d in (0..trace.len()).rev() {
        let rec = &trace[d];
        for alt in (rec.chosen + 1)..rec.cands.len() as u8 {
            let is_preempt = rec.prev_runnable && rec.cands[alt as usize] != rec.prev;
            if !is_preempt || rec.preempt_before < bound {
                let mut p: Vec<u8> = trace[..d].iter().map(|r| r.chosen).collect();
                p.push(alt);
                return Some(p);
            }
        }
    }
    None
}

/// The schedule target the CI model suite asserts per model: the
/// `CLIO_MODEL_SCHEDULES` override, else 2,000 under `CLIO_MODEL_CHECK=1`
/// (the release CI pass), else 1,000.
pub fn schedule_target() -> u64 {
    if let Ok(v) = std::env::var("CLIO_MODEL_SCHEDULES") {
        if let Ok(n) = v.trim().parse::<u64>() {
            return n.max(1);
        }
    }
    match std::env::var("CLIO_MODEL_CHECK") {
        Ok(v) if v != "0" => 2000,
        _ => 1000,
    }
}

/// Exploration summary returned by a passing [`Checker::check`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Total schedules executed.
    pub schedules: u64,
    /// Distinct schedules (by the sequence of scheduled thread ids).
    pub distinct: u64,
    /// Schedules executed by the bounded-preemption DFS phase.
    pub dfs_schedules: u64,
    /// Whether DFS exhausted the entire bounded schedule tree.
    pub dfs_complete: bool,
    /// Schedules executed by the seeded random walk.
    pub random_schedules: u64,
    /// Deepest schedule, in scheduling points.
    pub max_depth: usize,
    /// Wall time for the whole exploration.
    pub wall: Duration,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} schedules ({} distinct; dfs {}{}; random {}; max depth {}) in {:?}",
            self.schedules,
            self.distinct,
            self.dfs_schedules,
            if self.dfs_complete { ", complete" } else { "" },
            self.random_schedules,
            self.max_depth,
            self.wall
        )
    }
}

enum Replay {
    Seed(u64, u64),
    Trace(Vec<u8>),
}

/// Builder for a checked run; see the module docs.
pub struct Checker {
    name: &'static str,
    preemption_bound: u32,
    dfs_budget: u64,
    random_budget: u64,
    seed: u64,
    max_steps: usize,
    replay: Option<Replay>,
}

struct ActiveGuard;
impl ActiveGuard {
    fn new() -> ActiveGuard {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
        ActiveGuard
    }
}
impl Drop for ActiveGuard {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Checker {
    /// A checker with the CI defaults: preemption bound 3, DFS and
    /// random budgets of [`schedule_target`] each, seed from
    /// `CLIO_CHECK_SEED` (default `0xC110_C4EC`), and replay taken from
    /// `CLIO_CHECK_REPLAY=<seed>:<index>` when set.
    pub fn new(name: &'static str) -> Checker {
        let target = schedule_target();
        let seed = std::env::var("CLIO_CHECK_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0xC110_C4EC);
        let replay = std::env::var("CLIO_CHECK_REPLAY").ok().and_then(|v| {
            let (s, i) = v.split_once(':')?;
            Some(Replay::Seed(s.trim().parse().ok()?, i.trim().parse().ok()?))
        });
        Checker {
            name,
            preemption_bound: 3,
            dfs_budget: target,
            random_budget: target,
            seed,
            max_steps: 200_000,
            replay,
        }
    }

    /// Max context switches away from a still-runnable thread per DFS
    /// schedule.
    pub fn preemption_bound(mut self, n: u32) -> Checker {
        self.preemption_bound = n;
        self
    }

    /// Max schedules for the DFS phase (0 disables it).
    pub fn dfs_budget(mut self, n: u64) -> Checker {
        self.dfs_budget = n;
        self
    }

    /// Number of random-walk schedules (0 disables the phase).
    pub fn random_schedules(mut self, n: u64) -> Checker {
        self.random_budget = n;
        self
    }

    /// Seed for the random walk.
    pub fn seed(mut self, seed: u64) -> Checker {
        self.seed = seed;
        self
    }

    /// Runs exactly one schedule: random schedule `index` of `seed`, as
    /// printed in a failure's `CLIO_CHECK_REPLAY=<seed>:<index>` line.
    pub fn replay(mut self, seed: u64, index: u64) -> Checker {
        self.replay = Some(Replay::Seed(seed, index));
        self
    }

    /// Runs exactly one schedule from a failure's
    /// `Checker::replay_trace("...")` decision string.
    pub fn replay_trace(mut self, trace: &str) -> Checker {
        let choices = trace
            .split('.')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("invariant: replay trace entries are small integers")
            })
            .collect();
        self.replay = Some(Replay::Trace(choices));
        self
    }

    /// Explores schedules of `model`; panics on the first failing one
    /// (race, deadlock, livelock, or model panic) with both access
    /// sites, the schedule, and a replay line. Returns the exploration
    /// [`Report`] when every schedule passes.
    pub fn check<F>(&self, model: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
        let start = Instant::now();
        let _active = ActiveGuard::new();
        let mut distinct: HashSet<u64> = HashSet::new();
        let mut schedules = 0u64;
        let mut max_depth = 0usize;
        let mut dfs_schedules = 0u64;
        let mut dfs_complete = false;
        let mut random_schedules = 0u64;

        let run = |plan: Plan| -> Outcome { run_one(plan, &model, self.max_steps) };

        match &self.replay {
            Some(Replay::Seed(seed, index)) => {
                let rng = StdRng::seed_from_u64(schedule_seed(*seed, *index));
                let out = run(Plan::Random { rng });
                schedules = 1;
                max_depth = out.decisions.len();
                distinct.insert(fnv64(&out.tids()));
                if let Some(f) = &out.failure {
                    self.fail(f, &out, &seed_replay_line(*seed, *index));
                }
            }
            Some(Replay::Trace(choices)) => {
                let out = run(Plan::Dfs {
                    prefix: choices.clone(),
                });
                schedules = 1;
                max_depth = out.decisions.len();
                distinct.insert(fnv64(&out.tids()));
                if let Some(f) = &out.failure {
                    self.fail(f, &out, &trace_replay_line(&out.choices()));
                }
            }
            None => {
                // Phase 1: bounded-preemption DFS from the empty prefix.
                let mut prefix: Vec<u8> = Vec::new();
                while dfs_schedules < self.dfs_budget {
                    let out = run(Plan::Dfs { prefix });
                    dfs_schedules += 1;
                    schedules += 1;
                    max_depth = max_depth.max(out.decisions.len());
                    distinct.insert(fnv64(&out.tids()));
                    if let Some(f) = &out.failure {
                        self.fail(f, &out, &trace_replay_line(&out.choices()));
                    }
                    match next_dfs_prefix(&out.decisions, self.preemption_bound) {
                        Some(p) => prefix = p,
                        None => {
                            dfs_complete = true;
                            break;
                        }
                    }
                }
                // Phase 2: seeded random walk (skipped if DFS already
                // swept the whole bounded tree).
                if !dfs_complete {
                    for index in 0..self.random_budget {
                        let rng = StdRng::seed_from_u64(schedule_seed(self.seed, index));
                        let out = run(Plan::Random { rng });
                        random_schedules += 1;
                        schedules += 1;
                        max_depth = max_depth.max(out.decisions.len());
                        distinct.insert(fnv64(&out.tids()));
                        if let Some(f) = &out.failure {
                            self.fail(f, &out, &seed_replay_line(self.seed, index));
                        }
                    }
                }
            }
        }

        Report {
            schedules,
            distinct: distinct.len() as u64,
            dfs_schedules,
            dfs_complete,
            random_schedules,
            max_depth,
            wall: start.elapsed(),
        }
    }

    fn fail(&self, failure: &str, out: &Outcome, replay_line: &str) -> ! {
        panic!(
            "model check `{}` failed:\n{}\nschedule (thread ids): {}\nreplay: {}",
            self.name,
            failure,
            dot_join(&out.tids()),
            replay_line
        );
    }
}

fn seed_replay_line(seed: u64, index: u64) -> String {
    format!("CLIO_CHECK_REPLAY={seed}:{index} (or Checker::replay({seed}, {index}))")
}

fn trace_replay_line(choices: &[u8]) -> String {
    format!("Checker::replay_trace(\"{}\")", dot_join(choices))
}

/// Runs one schedule of `model` under `plan`.
fn run_one(plan: Plan, model: &Arc<dyn Fn() + Send + Sync>, max_steps: usize) -> Outcome {
    let sched = Arc::new(Sched {
        state: StdMutex::new(SchedState {
            threads: vec![ThreadState {
                block: Block::Runnable,
                clock: VClock::new(),
                at: Location::caller(),
            }],
            running: 0,
            live: 1,
            aborting: false,
            done: false,
            failure: None,
            trace: Vec::new(),
            preemptions: 0,
            steps: 0,
            plan,
            locks: HashMap::new(),
            atomics: HashMap::new(),
            cells: HashMap::new(),
        }),
        cv: StdCondvar::new(),
        max_steps,
    });
    let s2 = sched.clone();
    let m2 = model.clone();
    let root = std::thread::Builder::new()
        .name("clio-model-t0".to_string())
        .spawn(move || model_main(s2, 0, move || m2()))
        .expect("invariant: model root thread spawn failed");
    let mut st = sched.st();
    while !st.done {
        st = sched.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    let failure = st.failure.take();
    let decisions = std::mem::take(&mut st.trace);
    drop(st);
    let _ = root.join();
    Outcome { failure, decisions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicU64, Ordering as O};
    use crate::sync::{Condvar, Mutex};

    /// Runs a checker expected to fail, returning the panic message.
    fn check_fails<F>(checker: Checker, model: F) -> String
    where
        F: Fn() + Send + Sync + 'static,
    {
        let err = panic::catch_unwind(AssertUnwindSafe(|| checker.check(model)))
            .expect_err("model check should have found a failure");
        match err.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => panic!("unexpected panic payload: {}", panic_msg(p.as_ref())),
        }
    }

    fn small(name: &'static str) -> Checker {
        Checker::new(name).dfs_budget(300).random_schedules(100)
    }

    /// The order in which two threads' steps ran under random schedule
    /// `index` of seed 7, with `setup` extra scheduling points before
    /// the first spawn.
    fn interleaving(setup: usize, index: u64) -> Vec<u8> {
        let order = Arc::new(StdMutex::new(Vec::new()));
        let log = order.clone();
        Checker::new("choices").replay(7, index).check(move || {
            for _ in 0..setup {
                yield_point();
            }
            let mine = log.clone();
            let t = spawn(move || {
                for _ in 0..4 {
                    yield_point();
                    mine.lock().unwrap().push(1);
                }
            });
            for _ in 0..4 {
                yield_point();
                log.lock().unwrap().push(0);
            }
            t.join().expect("invariant: model thread returns");
        });
        let steps = order.lock().unwrap().clone();
        steps
    }

    #[test]
    fn one_candidate_points_leave_the_choices_unchanged() {
        let base: Vec<Vec<u8>> = (0..16).map(|i| interleaving(0, i)).collect();
        assert!(
            base.iter().any(|o| o != &base[0]),
            "the schedules must differ for the comparison to mean anything"
        );
        for (i, order) in base.iter().enumerate() {
            assert_eq!(&interleaving(3, i as u64), order, "schedule {i}");
        }
    }

    #[test]
    fn spawn_is_a_std_passthrough_outside_models() {
        let h = spawn(|| 41 + 1);
        assert_eq!(h.join().expect("invariant: thread returns"), 42);
    }

    #[test]
    fn canary_unsynchronized_writes_are_flagged_with_both_sites() {
        let msg = check_fails(small("canary"), || {
            let cell = Arc::new(RaceCell::new(0u64));
            let c2 = cell.clone();
            let t = spawn(move || c2.update(|v| *v += 1));
            cell.update(|v| *v += 1);
            let _ = t.join();
        });
        assert!(msg.contains("data race on RaceCell"), "{msg}");
        // Creation site plus BOTH access sites, all in this file.
        assert!(msg.matches("check.rs:").count() >= 3, "{msg}");
        assert!(msg.contains("by thread t0"), "{msg}");
        assert!(msg.contains("by thread t1"), "{msg}");
        assert!(msg.contains("no happens-before edge"), "{msg}");
        assert!(msg.contains("replay:"), "{msg}");
    }

    #[test]
    fn regression_address_reuse_does_not_alias_a_dead_cells_history() {
        // Found by a single-flight model: its second miss wave
        // allocated a fresh Flight on the first wave's freed address,
        // and the dead cell's recorded accesses produced a false race
        // against the new cell. On schedules where t1 runs to its park
        // first, `drop(a)` below frees the allocation on this thread
        // and the very next Arc::new reuses it — without the retire-on-
        // Drop fix, t1's read of the dead cell aliases b and the check
        // fails.
        let r = small("addr-reuse").check(|| {
            let gate = Arc::new(Mutex::new(()));
            let held = gate.lock();
            let a = Arc::new(RaceCell::new(0u64));
            let (a2, g2) = (a.clone(), gate.clone());
            let t = spawn(move || {
                let _ = a2.read();
                drop(a2); // t1's ref is gone before it parks on the gate
                drop(g2.lock());
            });
            drop(a);
            let b = Arc::new(RaceCell::new(0u64));
            b.write(7);
            drop(held);
            t.join().expect("invariant: model thread returns");
        });
        assert!(r.distinct >= 3, "{r}");
    }

    #[test]
    fn mutex_serialized_writes_are_race_free() {
        let r = small("mutex-ok").check(|| {
            let m = Arc::new(Mutex::new(()));
            let cell = Arc::new(RaceCell::new(0u64));
            let (m2, c2) = (m.clone(), cell.clone());
            let t = spawn(move || {
                let _g = m2.lock();
                c2.update(|v| *v += 1);
            });
            {
                let _g = m.lock();
                cell.update(|v| *v += 1);
            }
            t.join().expect("invariant: model thread returns");
            // join() gives a happens-before edge, so this read is safe.
            assert_eq!(cell.read(), 2);
        });
        assert!(r.distinct >= 2, "{r}");
    }

    #[test]
    fn release_acquire_publication_is_race_free() {
        let r = small("rel-acq-ok").check(|| {
            let flag = Arc::new(AtomicU64::new(0));
            let data = Arc::new(RaceCell::new(0u64));
            let (f2, d2) = (flag.clone(), data.clone());
            let t = spawn(move || {
                d2.write(42);
                f2.store(1, O::Release);
            });
            if flag.load(O::Acquire) == 1 {
                assert_eq!(data.read(), 42);
            }
            let _ = t.join();
        });
        assert!(r.distinct >= 2, "{r}");
    }

    #[test]
    fn relaxed_publication_is_a_race() {
        let msg = check_fails(small("relaxed-races"), || {
            let flag = Arc::new(AtomicU64::new(0));
            let data = Arc::new(RaceCell::new(0u64));
            let (f2, d2) = (flag.clone(), data.clone());
            let t = spawn(move || {
                d2.write(42);
                f2.store(1, O::Relaxed);
            });
            if flag.load(O::Relaxed) == 1 {
                let _ = data.read();
            }
            let _ = t.join();
        });
        assert!(msg.contains("data race on RaceCell"), "{msg}");
        assert!(msg.contains("write by thread"), "{msg}");
    }

    #[test]
    fn lost_wakeup_is_reported_as_deadlock() {
        let msg = check_fails(small("lost-wakeup"), || {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = pair.clone();
            let t = spawn(move || {
                let (m, cv) = &*p2;
                let mut g = m.lock();
                while !*g {
                    g = cv.wait(g);
                }
            });
            {
                // Flips the flag but forgets to notify: the waiter can
                // block forever whenever it checked the flag first.
                let mut g = pair.0.lock();
                *g = true;
            }
            let _ = t.join();
        });
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("blocked"), "{msg}");
    }

    #[test]
    fn notify_all_handshake_completes() {
        let r = small("handshake").check(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = pair.clone();
            let t = spawn(move || {
                let (m, cv) = &*p2;
                let mut g = m.lock();
                *g = true;
                cv.notify_all();
            });
            {
                let (m, cv) = &*pair;
                let mut g = m.lock();
                while !*g {
                    g = cv.wait(g);
                }
            }
            t.join().expect("invariant: model thread returns");
        });
        assert!(r.distinct >= 2, "{r}");
    }

    #[test]
    fn dfs_exhausts_the_bounded_tree_of_a_tiny_model() {
        let r = Checker::new("dfs-complete")
            .preemption_bound(8)
            .dfs_budget(50_000)
            .check(|| {
                let a = Arc::new(AtomicU64::new(0));
                let a2 = a.clone();
                let t = spawn(move || {
                    a2.fetch_add(1, O::SeqCst);
                });
                a.fetch_add(1, O::SeqCst);
                t.join().expect("invariant: model thread returns");
                assert_eq!(a.load(O::SeqCst), 2);
            });
        assert!(r.dfs_complete, "{r}");
        assert_eq!(r.random_schedules, 0, "{r}");
        assert!(r.distinct >= 3, "{r}");
    }

    #[test]
    fn model_assertion_failures_are_schedule_failures() {
        let msg = check_fails(small("assert-fails"), || {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = a.clone();
            let t = spawn(move || {
                a2.store(1, O::SeqCst);
            });
            // Fails on any schedule that runs the child store first.
            assert_eq!(a.load(O::SeqCst), 0, "observed the store");
            let _ = t.join();
        });
        assert!(msg.contains("observed the store"), "{msg}");
        assert!(msg.contains("replay:"), "{msg}");
    }

    #[test]
    fn a_drop_that_locks_while_unwinding_keeps_the_failure_report() {
        /// Takes a lock on its way out, as a product guard's `Drop` can.
        struct LocksOnDrop(Arc<Mutex<u32>>);
        impl Drop for LocksOnDrop {
            fn drop(&mut self) {
                *self.0.lock() += 1;
            }
        }
        // t1 holds the guard and spins until the schedule stops; t0 fails
        // once t1 holds it, so t1 unwinds through the guard's lock.
        let msg = check_fails(
            Checker::new("unwind").dfs_budget(0).random_schedules(8),
            || {
                let held = Arc::new(AtomicU64::new(0));
                let (h2, m) = (held.clone(), Arc::new(Mutex::new(0)));
                let _t = spawn(move || {
                    let _g = LocksOnDrop(m);
                    h2.store(1, O::Release);
                    while h2.load(O::Acquire) < 2 {}
                });
                while held.load(O::Acquire) == 0 {}
                panic!("the original failure");
            },
        );
        assert!(
            msg.contains("thread t0 panicked: the original failure"),
            "{msg}"
        );
    }

    // A minimal always-racy model for the replay tests (non-capturing,
    // so the same closure can drive both the original and the replay).
    fn racy_model() {
        let cell = Arc::new(RaceCell::new(0u64));
        let c2 = cell.clone();
        let t = spawn(move || c2.write(1));
        cell.write(2);
        let _ = t.join();
    }

    #[test]
    fn random_failures_replay_byte_identically_from_the_printed_seed() {
        let first = check_fails(
            Checker::new("seed-replay")
                .dfs_budget(0)
                .random_schedules(16)
                .seed(42),
            racy_model,
        );
        let spec = first
            .split("CLIO_CHECK_REPLAY=")
            .nth(1)
            .expect("failure message carries a seed replay line")
            .split_whitespace()
            .next()
            .expect("replay spec is non-empty");
        let (seed, index) = spec.split_once(':').expect("replay spec is seed:index");
        let again = check_fails(
            Checker::new("seed-replay").replay(
                seed.parse().expect("seed parses"),
                index.parse().expect("index parses"),
            ),
            racy_model,
        );
        assert_eq!(first, again, "replay must reproduce byte-identically");
    }

    #[test]
    fn dfs_failures_replay_byte_identically_from_the_printed_trace() {
        let first = check_fails(
            Checker::new("trace-replay")
                .dfs_budget(16)
                .random_schedules(0),
            racy_model,
        );
        let trace = first
            .split("Checker::replay_trace(\"")
            .nth(1)
            .expect("failure message carries a trace replay line")
            .split('"')
            .next()
            .expect("trace is quoted");
        let again = check_fails(Checker::new("trace-replay").replay_trace(trace), racy_model);
        assert_eq!(first, again, "trace replay must reproduce byte-identically");
    }
}
