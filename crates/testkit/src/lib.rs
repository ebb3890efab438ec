//! In-tree, std-only test and measurement infrastructure for the Clio
//! workspace.
//!
//! The workspace is **std-only by policy**: tier-1 verification
//! (`cargo build --release --offline && cargo test -q --offline`) must
//! succeed on a machine with no network and no registry cache, because the
//! paper reproduction's numbers (Fig. 2–4, Table 1) are only trustworthy
//! if anyone can re-run them hermetically. This crate supplies the four
//! things the workspace previously pulled from crates.io:
//!
//! * [`sync`] — API-compatible, poison-transparent wrappers over
//!   [`std::sync`]'s `Mutex`/`RwLock`/`Condvar` (the guard-returning subset
//!   the workspace used: `lock()`/`read()`/`write()` return guards
//!   directly, never a `Result`), instrumented for lock-order validation.
//! * [`lockdep`] — the validator behind those wrappers: lock classes,
//!   a per-thread held stack, and a global acquisition-order graph with
//!   cycle detection, enabled by `CLIO_LOCKDEP=1`.
//! * [`rng`] — a seeded SplitMix64/xoshiro256++ PRNG replacing `rand`.
//!   Everything is reproducible from a printed `u64` seed.
//! * [`prop`] — a small property-testing harness:
//!   tape-based generators, greedy input shrinking, case count via
//!   `CLIO_PROP_CASES`, exact-failure replay via `CLIO_PROP_SEED`, and
//!   explicit named regression cases.
//! * [`bench`] — a wall-clock micro-benchmark timer:
//!   warmup, fixed-duration samples, median-of-samples reporting.
//! * [`sim`] — deterministic whole-system simulation: an
//!   operation-history recorder and a linearizability checker specialized
//!   to the log model (the seeded scheduler is `clio_costmodel`'s). One
//!   `u64` seed reproduces an entire multi-client, multi-crash run.
//! * [`check`] — a loom-lite concurrency model checker: a cooperative
//!   scheduler explores thread interleavings of small protocol models
//!   (bounded-preemption DFS + seeded random walk with byte-identical
//!   replay), while a vector-clock ([`vclock`]) happens-before checker
//!   reports data races with both access sites. [`sync`] and
//!   [`sync::atomic`] are its instrumentation surface.
//!
//! It also hosts shared cross-crate test harnesses, currently
//! [`devcheck`] — byte-for-byte conformance schedules for vectored
//! device appends (`LogDevice::append_blocks`).

pub mod bench;
pub mod check;
pub mod devcheck;
pub mod lockdep;
pub mod prop;
pub mod rng;
pub mod sim;
pub mod sync;
pub mod vclock;
