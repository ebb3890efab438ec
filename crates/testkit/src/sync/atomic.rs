//! Atomic wrappers instrumented for the [`crate::check`] model checker.
//!
//! Replacements for the `std::sync::atomic` integer/bool types with the
//! same explicit-[`Ordering`] APIs, limited to the operations the
//! workspace calls (load, store, swap, and fetch add/max/min). Outside a
//! checked run each operation is the std operation plus one relaxed
//! load; under a model run each access is a scheduling point, and the
//! declared ordering feeds the vector-clock race detector exactly as the
//! memory model prescribes: `Release` (and stronger) stores publish the
//! writer's clock to the atomic, `Acquire` (and stronger) loads join it
//! — `Relaxed` accesses synchronize nothing, so data "published" over a
//! relaxed flag stays racy and is reported.
//!
//! The `no-raw-std-atomics` lint rule forbids direct `std::sync::atomic`
//! use in library code outside this crate, so every ordering claim in the
//! tree is model-checkable.

pub use std::sync::atomic::Ordering;

use crate::check;

fn load_acquires(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn store_releases(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn addr_of<T>(obj: &T) -> usize {
    obj as *const T as usize
}

macro_rules! atomic_int {
    ($(#[$doc:meta])* $name:ident, $std:ident, $prim:ty) => {
        $(#[$doc])*
        #[repr(transparent)]
        #[derive(Default)]
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates a new atomic with the given initial value.
            pub const fn new(v: $prim) -> $name {
                $name {
                    inner: std::sync::atomic::$std::new(v),
                }
            }

            /// Loads the value with the given ordering.
            #[track_caller]
            pub fn load(&self, order: Ordering) -> $prim {
                check::atomic_access(addr_of(self), load_acquires(order), false);
                self.inner.load(order)
            }

            /// Stores `v` with the given ordering.
            #[track_caller]
            pub fn store(&self, v: $prim, order: Ordering) {
                check::atomic_access(addr_of(self), false, store_releases(order));
                self.inner.store(v, order)
            }

            /// Swaps in `v`, returning the previous value.
            #[track_caller]
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                self.rmw(order);
                self.inner.swap(v, order)
            }

            /// Adds `v`, returning the previous value.
            #[track_caller]
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                self.rmw(order);
                self.inner.fetch_add(v, order)
            }

            /// Stores the maximum of the value and `v`, returning the
            /// previous value.
            #[track_caller]
            pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                self.rmw(order);
                self.inner.fetch_max(v, order)
            }

            /// Stores the minimum of the value and `v`, returning the
            /// previous value.
            #[track_caller]
            pub fn fetch_min(&self, v: $prim, order: Ordering) -> $prim {
                self.rmw(order);
                self.inner.fetch_min(v, order)
            }

            /// Mutable access without atomics (requires exclusive
            /// ownership).
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            /// Consumes the atomic, returning the value.
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }

            fn rmw(&self, order: Ordering) {
                check::atomic_access(
                    addr_of(self),
                    load_acquires(order),
                    store_releases(order),
                );
            }
        }

        impl From<$prim> for $name {
            fn from(v: $prim) -> $name {
                $name::new(v)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // Direct inner load: Debug must not be a scheduling point.
                self.inner.load(Ordering::Relaxed).fmt(f)
            }
        }
    };
}

atomic_int!(
    /// An instrumented [`std::sync::atomic::AtomicU64`].
    AtomicU64,
    AtomicU64,
    u64
);
atomic_int!(
    /// An instrumented [`std::sync::atomic::AtomicU32`].
    AtomicU32,
    AtomicU32,
    u32
);
atomic_int!(
    /// An instrumented [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    AtomicUsize,
    usize
);
atomic_int!(
    /// An instrumented [`std::sync::atomic::AtomicI64`].
    AtomicI64,
    AtomicI64,
    i64
);

// The exception: bookkeeping atomics for counters that order nothing, with
// a Relaxed-only API and no scheduling point. A Relaxed access adds no
// happens-before edge, so the checker loses nothing by not scheduling
// around it, and an operation's scheduling points stop depending on the
// values it counts. A loop that polls one while waiting for another thread
// yields through `check::yield_point`.
macro_rules! relaxed_int {
    ($(#[$doc:meta])* $name:ident, $std:ident, $prim:ty) => {
        $(#[$doc])*
        #[repr(transparent)]
        #[derive(Default)]
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates a new atomic with the given initial value.
            pub const fn new(v: $prim) -> $name {
                $name {
                    inner: std::sync::atomic::$std::new(v),
                }
            }

            /// Loads the value.
            pub fn load(&self) -> $prim {
                self.inner.load(Ordering::Relaxed)
            }

            /// Stores `v`.
            pub fn store(&self, v: $prim) {
                self.inner.store(v, Ordering::Relaxed)
            }

            /// Adds `v` (wrapping), returning the previous value.
            pub fn fetch_add(&self, v: $prim) -> $prim {
                self.inner.fetch_add(v, Ordering::Relaxed)
            }

            /// Stores the minimum of the value and `v`.
            pub fn fetch_min(&self, v: $prim) -> $prim {
                self.inner.fetch_min(v, Ordering::Relaxed)
            }

            /// Stores the maximum of the value and `v`.
            pub fn fetch_max(&self, v: $prim) -> $prim {
                self.inner.fetch_max(v, Ordering::Relaxed)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.load().fmt(f)
            }
        }
    };
}

relaxed_int!(
    /// A Relaxed-only `u64` that is never a model-checker scheduling
    /// point: for counters that order nothing.
    RelaxedU64,
    AtomicU64,
    u64
);
relaxed_int!(
    /// A Relaxed-only `i64` that is never a model-checker scheduling
    /// point: for gauges that order nothing.
    RelaxedI64,
    AtomicI64,
    i64
);

/// An instrumented [`std::sync::atomic::AtomicBool`].
#[repr(transparent)]
#[derive(Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// Creates a new atomic with the given initial value.
    pub const fn new(v: bool) -> AtomicBool {
        AtomicBool {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }

    /// Loads the value with the given ordering.
    #[track_caller]
    pub fn load(&self, order: Ordering) -> bool {
        check::atomic_access(addr_of(self), load_acquires(order), false);
        self.inner.load(order)
    }

    /// Stores `v` with the given ordering.
    #[track_caller]
    pub fn store(&self, v: bool, order: Ordering) {
        check::atomic_access(addr_of(self), false, store_releases(order));
        self.inner.store(v, order)
    }

    /// Swaps in `v`, returning the previous value.
    #[track_caller]
    pub fn swap(&self, v: bool, order: Ordering) -> bool {
        self.rmw(order);
        self.inner.swap(v, order)
    }

    /// Mutable access without atomics (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut bool {
        self.inner.get_mut()
    }

    /// Consumes the atomic, returning the value.
    pub fn into_inner(self) -> bool {
        self.inner.into_inner()
    }

    fn rmw(&self, order: Ordering) {
        check::atomic_access(addr_of(self), load_acquires(order), store_releases(order));
    }
}

impl From<bool> for AtomicBool {
    fn from(v: bool) -> AtomicBool {
        AtomicBool::new(v)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.load(Ordering::Relaxed).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static GLOBAL: AtomicU64 = AtomicU64::new(7); // const-constructible

    #[test]
    fn int_ops_behave_like_std() {
        assert_eq!(GLOBAL.load(Ordering::Relaxed), 7);
        let a = AtomicU64::new(1);
        assert_eq!(a.fetch_add(2, Ordering::Relaxed), 1);
        assert_eq!(a.swap(10, Ordering::SeqCst), 3);
        assert_eq!(a.fetch_max(4, Ordering::Relaxed), 10);
        assert_eq!(a.fetch_min(4, Ordering::Relaxed), 10);
        assert_eq!(a.load(Ordering::Acquire), 4);
        let mut a = a;
        *a.get_mut() = 5;
        assert_eq!(a.into_inner(), 5);
        let i = AtomicI64::new(-3);
        assert_eq!(i.fetch_add(1, Ordering::Relaxed), -3);
        let u = AtomicUsize::from(2usize);
        assert_eq!(u.load(Ordering::SeqCst), 2);
        assert_eq!(format!("{u:?}"), "2");
    }

    #[test]
    fn bool_ops_behave_like_std() {
        let b = AtomicBool::new(false);
        assert!(!b.swap(true, Ordering::AcqRel));
        b.store(false, Ordering::Release);
        assert!(!b.load(Ordering::Acquire));
        let mut b = b;
        *b.get_mut() = true;
        assert!(b.into_inner());
    }

    #[test]
    fn ordering_classification() {
        assert!(load_acquires(Ordering::Acquire));
        assert!(load_acquires(Ordering::SeqCst));
        assert!(!load_acquires(Ordering::Relaxed));
        assert!(!load_acquires(Ordering::Release));
        assert!(store_releases(Ordering::Release));
        assert!(store_releases(Ordering::AcqRel));
        assert!(!store_releases(Ordering::Acquire));
        assert!(!store_releases(Ordering::Relaxed));
    }
}
