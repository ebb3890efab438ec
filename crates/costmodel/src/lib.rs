#![warn(missing_docs)]
//! Modelled time: the 1987 cost table, the device and the scheduler that
//! spend it, and the workload generators that drive them. Nothing here
//! reads the host clock (`clio-lint`'s `no-wallclock`); the only host time
//! is the hold a host-paced [`LatencyDevice`] asks `clio_obs` for.
//!
//! We measure *operation counts* (block reads, cache hits, IPC round
//! trips…) on the real implementation and convert them to the paper's
//! milliseconds with [`cost::CostModel`], whose constants are the paper's
//! own measurements (Sun-3 + V-System + write-once optical disk). This is
//! the substitution documented in DESIGN.md: latency numbers in the paper
//! are sums of (op count × per-op cost), so reproducing the counts
//! reproduces the shape of every table and figure.
//!
//! [`latency`] charges those costs per device access, to the virtual
//! `clio_types::ManualClock` or to the calling thread; [`sched`] is the
//! simulator's seeded scheduler, which advances the same clock.
//!
//! [`workload`] provides the seeded generators behind the evaluation:
//! the §3.5 login/logout audit stream, a transaction-commit stream for the
//! forced-write experiments, a mail-delivery stream (§4.2), and an
//! Ousterhout-style file-access trace for the §4.1 feasibility argument.

pub mod cost;
pub mod latency;
pub mod sched;
pub mod workload;

pub use cost::CostModel;
pub use latency::LatencyDevice;
pub use sched::Scheduler;
pub use workload::{LoginWorkload, MailWorkload, TraceEvent, TraceWorkload, TxnWorkload};
