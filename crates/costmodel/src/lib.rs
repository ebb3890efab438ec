#![warn(missing_docs)]
//! The 1987 cost model and workload generators. (The deterministic
//! whole-system *simulator* is `clio_testkit::sim`; this crate prices op
//! counts, it schedules nothing.)
//!
//! We measure *operation counts* (block reads, cache hits, IPC round
//! trips…) on the real implementation and convert them to the paper's
//! milliseconds with [`cost::CostModel`], whose constants are the paper's
//! own measurements (Sun-3 + V-System + write-once optical disk). This is
//! the substitution documented in DESIGN.md: latency numbers in the paper
//! are sums of (op count × per-op cost), so reproducing the counts
//! reproduces the shape of every table and figure.
//!
//! [`workload`] provides the seeded generators behind the evaluation:
//! the §3.5 login/logout audit stream, a transaction-commit stream for the
//! forced-write experiments, a mail-delivery stream (§4.2), and an
//! Ousterhout-style file-access trace for the §4.1 feasibility argument.

pub mod cost;
pub mod timed;
pub mod workload;

pub use cost::{CostClock, CostModel};
pub use timed::TimedDevice;
pub use workload::{LoginWorkload, MailWorkload, TraceEvent, TraceWorkload, TxnWorkload};
