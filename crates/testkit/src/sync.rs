//! Poison-transparent wrappers over [`std::sync`] locks, instrumented
//! for lock-order validation.
//!
//! The workspace uses the guard-returning lock calling convention
//! everywhere:
//! `mutex.lock()` yields a guard, not a `Result`. These wrappers keep that
//! convention on top of `std::sync` by treating poisoning as transparent —
//! a panic while a lock is held does not wedge every later acquirer, it
//! simply hands them the inner data (exactly the semantics of the
//! external lock crate these wrappers replace,
//! which has no poisoning at all). Tests that kill threads mid-operation
//! rely on this: the crash/recovery storms must be able to re-inspect
//! state after a deliberate panic.
//!
//! Every lock additionally carries a [`crate::lockdep`] class — by
//! default keyed to its creation site (so the N cache shards built in
//! one loop share one class), or named explicitly:
//!
//! * [`Mutex::with_class`] / [`RwLock::with_class`] — a named class,
//!   *strict*: holding it across blocking device I/O trips
//!   [`crate::lockdep::assert_no_locks_held`].
//! * [`Mutex::with_class_io`] / [`RwLock::with_class_io`] — a named
//!   class that is allowed to span device writes (e.g. the append-state
//!   mutex the group-commit leader holds while committing).
//!
//! Tracking is entirely inert unless `CLIO_LOCKDEP=1` is set; see the
//! [`crate::lockdep`] module docs.
//!
//! Under a [`crate::check`] model run, every acquisition, release,
//! condvar wait/notify and [`ArcCell`] access on the current thread is
//! additionally a scheduling point of the cooperative model checker,
//! and contributes happens-before edges to its race detector. Outside a
//! checked run that instrumentation is one relaxed atomic load.

use std::fmt;
use std::panic::Location;
use std::sync::TryLockError;

use crate::check;
use crate::lockdep;
use crate::lockdep::LockMeta;

pub mod atomic;

/// Stable address used to identify a lock object within one model
/// schedule (`cast` drops any wide-pointer metadata for `?Sized` data).
fn obj_addr<T: ?Sized>(obj: &T) -> usize {
    (obj as *const T).cast::<()>() as usize
}

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized> {
    meta: LockMeta,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]; releases the lock on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can move the std guard out without
    // running this guard's release bookkeeping; `None` only transiently
    // inside `wait` and during drop.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    dep: lockdep::Held,
    // Back-pointer so a checked-mode `Condvar::wait` can re-acquire.
    owner: &'a Mutex<T>,
    // Model-lock address when this acquisition is checker-tracked.
    chk: Option<usize>,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex. Its lockdep class is this call site.
    #[track_caller]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            meta: LockMeta::new(Location::caller(), None, false),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Creates a mutex in the named lockdep class.
    ///
    /// Strict: holding it across blocking device I/O is reported by
    /// [`lockdep::assert_no_locks_held`].
    #[track_caller]
    pub const fn with_class(value: T, class: &'static str) -> Mutex<T> {
        Mutex {
            meta: LockMeta::new(Location::caller(), Some(class), false),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Creates a mutex in the named lockdep class, marked as safe to
    /// hold across blocking device I/O.
    #[track_caller]
    pub const fn with_class_io(value: T, class: &'static str) -> Mutex<T> {
        Mutex {
            meta: LockMeta::new(Location::caller(), Some(class), true),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Record the acquisition first: an acquisition that would close
        // an ordering cycle panics instead of deadlocking. Under a model
        // run the cooperative scheduler then serializes the acquisition,
        // so the std lock below never blocks a model thread.
        let dep = lockdep::on_acquire(&self.meta, Location::caller());
        let addr = obj_addr(self);
        let chk = check::mutex_lock(addr).then_some(addr);
        MutexGuard {
            inner: Some(
                self.inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            ),
            dep,
            owner: self,
            chk,
        }
    }

    /// Acquires the lock only if it is free right now.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let addr = obj_addr(self);
        if let Some(acquired) = check::mutex_try_lock(addr) {
            if !acquired {
                return None;
            }
            let inner = match self.inner.try_lock() {
                Ok(g) => g,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    unreachable!("invariant: a model-granted lock is free among model threads")
                }
            };
            return Some(MutexGuard {
                inner: Some(inner),
                dep: lockdep::on_acquire_try(&self.meta, Location::caller()),
                owner: self,
                chk: Some(addr),
            });
        }
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            inner: Some(inner),
            dep: lockdep::on_acquire_try(&self.meta, Location::caller()),
            owner: self,
            chk: None,
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before popping the held stack so the
        // stack never claims this thread is lock-free while it still
        // holds the std mutex.
        self.inner = None;
        if let Some(addr) = self.chk.take() {
            check::mutex_unlock(addr);
        }
        lockdep::on_release(&mut self.dep);
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("invariant: a live MutexGuard always wraps the std guard")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("invariant: a live MutexGuard always wraps the std guard")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly.
pub struct RwLock<T: ?Sized> {
    meta: LockMeta,
    inner: std::sync::RwLock<T>,
}

/// Shared-access RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    dep: lockdep::Held,
    chk: Option<usize>,
}

/// Exclusive-access RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    dep: lockdep::Held,
    chk: Option<usize>,
}

impl<T> RwLock<T> {
    /// Creates a new unlocked lock. Its lockdep class is this call site.
    #[track_caller]
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            meta: LockMeta::new(Location::caller(), None, false),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Creates a lock in the named lockdep class (strict; see
    /// [`Mutex::with_class`]).
    #[track_caller]
    pub const fn with_class(value: T, class: &'static str) -> RwLock<T> {
        RwLock {
            meta: LockMeta::new(Location::caller(), Some(class), false),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Creates a lock in the named lockdep class, marked as safe to
    /// hold across blocking device I/O.
    #[track_caller]
    pub const fn with_class_io(value: T, class: &'static str) -> RwLock<T> {
        RwLock {
            meta: LockMeta::new(Location::caller(), Some(class), true),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared access, blocking until available.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let dep = lockdep::on_acquire(&self.meta, Location::caller());
        let addr = obj_addr(self);
        let chk = check::rw_lock(addr, false).then_some(addr);
        RwLockReadGuard {
            inner: self
                .inner
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            dep,
            chk,
        }
    }

    /// Acquires exclusive access, blocking until available.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let dep = lockdep::on_acquire(&self.meta, Location::caller());
        let addr = obj_addr(self);
        let chk = check::rw_lock(addr, true).then_some(addr);
        RwLockWriteGuard {
            inner: self
                .inner
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            dep,
            chk,
        }
    }

    /// Acquires shared access only if no writer holds the lock.
    #[track_caller]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let addr = obj_addr(self);
        let chk = match check::rw_try_lock(addr, false) {
            Some(false) => return None,
            Some(true) => Some(addr),
            None => None,
        };
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(RwLockReadGuard {
            inner,
            dep: lockdep::on_acquire_try(&self.meta, Location::caller()),
            chk,
        })
    }

    /// Acquires exclusive access only if the lock is free right now.
    #[track_caller]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let addr = obj_addr(self);
        let chk = match check::rw_try_lock(addr, true) {
            Some(false) => return None,
            Some(true) => Some(addr),
            None => None,
        };
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(RwLockWriteGuard {
            inner,
            dep: lockdep::on_acquire_try(&self.meta, Location::caller()),
            chk,
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            None => f.write_str("RwLock { <locked> }"),
        }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        // Model release before the field drop frees the std lock: safe,
        // because no other model thread runs until this one yields.
        if let Some(addr) = self.chk.take() {
            check::rw_unlock(addr, false);
        }
        lockdep::on_release(&mut self.dep);
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(addr) = self.chk.take() {
            check::rw_unlock(addr, true);
        }
        lockdep::on_release(&mut self.dep);
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// An atomically swappable [`Arc`](std::sync::Arc) — a publish/subscribe
/// cell for immutable snapshots.
///
/// Writers build a fresh `Arc<T>` and [`ArcCell::set`] it; readers
/// [`ArcCell::get`] the current one. The internal mutex is held only long
/// enough to clone or replace the `Arc` (a refcount bump, never user
/// code), so readers never contend with whatever produced the snapshot —
/// the cell is safe to read while a writer holds unrelated locks.
pub struct ArcCell<T> {
    inner: Mutex<std::sync::Arc<T>>,
}

impl<T> ArcCell<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: std::sync::Arc<T>) -> ArcCell<T> {
        ArcCell {
            inner: Mutex::with_class(value, "testkit.arc_cell"),
        }
    }

    /// The current snapshot (a cheap refcount bump).
    pub fn get(&self) -> std::sync::Arc<T> {
        self.inner.lock().clone()
    }

    /// Publishes `value`, replacing the current snapshot. The replaced
    /// snapshot is dropped after the cell's lock is released: its
    /// destructor may be arbitrary user code (a whole read view), and
    /// every reader's `get` would wait behind it.
    pub fn set(&self, value: std::sync::Arc<T>) {
        drop(self.swap(value));
    }

    /// Publishes `value` and returns the snapshot it replaced.
    pub fn swap(&self, value: std::sync::Arc<T>) -> std::sync::Arc<T> {
        std::mem::replace(&mut *self.inner.lock(), value)
    }
}

impl<T: fmt::Debug> fmt::Debug for ArcCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ArcCell").field(&self.get()).finish()
    }
}

/// A condition variable usable with [`Mutex`]/[`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks until notified, releasing the guard while waiting.
    ///
    /// Under a model run the wait is re-implemented at model level: the
    /// guard is dropped and the thread blocks in the scheduler until a
    /// notify targets this condvar (release+wait is still atomic — no
    /// scheduling point runs in between, so wakeups cannot be lost any
    /// more than with the real condvar). Lost-wakeup *bugs* in the
    /// model surface as scheduler deadlocks.
    #[track_caller]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        if check::is_model() {
            let owner = guard.owner;
            drop(guard);
            check::condvar_wait(obj_addr(self), false);
            return owner.lock();
        }
        let at = Location::caller();
        let owner = guard.owner;
        let (inner, class) = Self::part(&mut guard);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MutexGuard {
            inner: Some(inner),
            dep: lockdep::on_wait_reacquire(class, at),
            owner,
            chk: None,
        }
    }

    /// Blocks until `cond` returns false, re-checking on every wakeup.
    #[track_caller]
    pub fn wait_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut cond: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        if check::is_model() {
            while cond(&mut *guard) {
                guard = self.wait(guard);
            }
            return guard;
        }
        let at = Location::caller();
        let owner = guard.owner;
        let (inner, class) = Self::part(&mut guard);
        let inner = self
            .inner
            .wait_while(inner, cond)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MutexGuard {
            inner: Some(inner),
            dep: lockdep::on_wait_reacquire(class, at),
            owner,
            chk: None,
        }
    }

    /// Blocks until notified or `dur` elapses; returns the guard and
    /// whether the wait timed out.
    ///
    /// Under a model run the duration is ignored: a timed waiter simply
    /// stays schedulable, and the scheduler explores both the notified
    /// and the timed-out wakeup.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        if check::is_model() {
            let owner = guard.owner;
            drop(guard);
            let timed_out = check::condvar_wait(obj_addr(self), true);
            return (owner.lock(), timed_out);
        }
        let at = Location::caller();
        let owner = guard.owner;
        let (inner, class) = Self::part(&mut guard);
        let (inner, timeout) = self
            .inner
            .wait_timeout(inner, dur)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (
            MutexGuard {
                inner: Some(inner),
                dep: lockdep::on_wait_reacquire(class, at),
                owner,
                chk: None,
            },
            timeout.timed_out(),
        )
    }

    /// Takes the std guard out of `guard` and pops its lockdep tracking:
    /// while blocked in `wait` the thread does not hold the mutex.
    fn part<'a, T>(guard: &mut MutexGuard<'a, T>) -> (std::sync::MutexGuard<'a, T>, Option<u32>) {
        let inner = guard
            .inner
            .take()
            .expect("invariant: a live MutexGuard always wraps the std guard");
        let class = lockdep::on_unlock_for_wait(&mut guard.dep);
        (inner, class)
    }

    /// Wakes one waiter.
    #[track_caller]
    pub fn notify_one(&self) {
        if check::condvar_notify(obj_addr(self), false) {
            return;
        }
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    #[track_caller]
    pub fn notify_all(&self) {
        if check::condvar_notify(obj_addr(self), true) {
            return;
        }
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
            assert!(l.try_write().is_none());
        }
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn poisoned_mutex_stays_usable() {
        let m = Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // Poison-transparent semantics: later lockers still get the data.
        assert_eq!(*m.lock(), 7);
        *m.lock() = 8;
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn arc_cell_publishes_snapshots() {
        let cell = Arc::new(ArcCell::new(Arc::new(1)));
        let pinned = cell.get();
        cell.set(Arc::new(2));
        // A pinned snapshot is unaffected by later publishes.
        assert_eq!(*pinned, 1);
        assert_eq!(*cell.get(), 2);
        let old = cell.swap(Arc::new(3));
        assert_eq!(*old, 2);
        // Readers on other threads see some published value, never a torn one.
        let c2 = cell.clone();
        let t = std::thread::spawn(move || *c2.get());
        assert!(matches!(t.join().unwrap(), 3));
    }

    #[test]
    fn arc_cell_set_drops_the_replaced_snapshot_outside_the_lock() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::OnceLock;

        /// A snapshot whose destructor checks whether its cell is locked.
        struct Snap {
            cell: OnceLock<Arc<ArcCell<Snap>>>,
            cell_was_free: Arc<AtomicBool>,
        }
        impl Drop for Snap {
            fn drop(&mut self) {
                if let Some(cell) = self.cell.get() {
                    let free = cell.inner.try_lock().is_some();
                    self.cell_was_free.store(free, Ordering::SeqCst);
                }
            }
        }
        let cell_was_free = Arc::new(AtomicBool::new(false));
        let snap = |flag: &Arc<AtomicBool>| {
            Arc::new(Snap {
                cell: OnceLock::new(),
                cell_was_free: flag.clone(),
            })
        };
        let first = snap(&cell_was_free);
        let cell = Arc::new(ArcCell::new(first.clone()));
        assert!(first.cell.set(cell.clone()).is_ok());
        drop(first);
        // The cell holds the last reference: `set` runs the destructor.
        cell.set(snap(&Arc::new(AtomicBool::new(false))));
        assert!(
            cell_was_free.load(Ordering::SeqCst),
            "the replaced snapshot was dropped under the cell's lock"
        );
    }

    #[test]
    fn condvar_signals_across_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *m.lock() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let g = cv.wait_while(m.lock(), |ready| !*ready);
        assert!(*g);
        t.join().unwrap();
    }
}
