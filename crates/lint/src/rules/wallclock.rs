//! `no-wallclock`: determinism policy. Test schedules and recovery
//! results must be replayable, so product code never reads the host
//! clock directly. Latencies and span timestamps come from the one
//! reading function, `clio_obs::clock::read()`; semantic timestamps come
//! from `clio_types::time::Clock`, which tests replace with a logical
//! clock. Only the approved timing modules may call `Instant::now()` /
//! `SystemTime::now()` themselves. Spending host time is policed the same
//! way: `thread::sleep` only in `clio_obs::clock::hold`, which a
//! host-paced latency device calls, and in the benchmark drivers.

use crate::lexer::match_path;
use crate::{Diag, SourceFile};

/// Rule name used in diagnostics.
pub const NAME: &str = "no-wallclock";

/// Where direct host-clock reads are the point:
/// - `crates/obs/src/clock.rs` — `clio_obs::clock::read()` is the
///   sanctioned funnel: one reading per phase boundary, shared by spans
///   and latency histograms, and overridable with virtual time (the rest
///   of `clio-obs` reads the clock through it too);
/// - `crates/bench/` — benchmark drivers measure wall time;
/// - `crates/testkit/src/bench.rs` — the in-tree bench timer;
/// - `crates/testkit/src/check.rs` — the model checker reports wall
///   time per exploration (its *schedules* are deterministic; the
///   timing is reporting only, like the bench timer);
/// - `crates/types/src/time.rs` — `SystemClock`, the one production
///   implementation of the semantic `Clock` trait.
///
/// `crates/costmodel/` is deliberately NOT approved: the cost table, the
/// latency device and the simulation scheduler derive every instant from
/// seeded state, and a stray host-clock read there would silently break
/// seed replay.
const APPROVED: &[&str] = &[
    "crates/obs/src/clock.rs",
    "crates/bench/",
    "crates/testkit/src/bench.rs",
    "crates/testkit/src/check.rs",
    "crates/types/src/time.rs",
];

/// Where sleeping is the point: `clio_obs::clock::hold`'s body, and
/// benchmark drivers.
const SLEEP_APPROVED: &[&str] = &["crates/obs/src/clock.rs", "crates/bench/"];

/// Flags `Instant::now()` and `SystemTime::now()` outside the approved
/// modules, and `thread::sleep` outside its own (test code included:
/// deterministic tests are the point).
pub fn check(sf: &SourceFile, out: &mut Vec<Diag>) {
    let approved = |list: &[&str]| list.iter().any(|p| sf.rel.starts_with(p));
    let (reads, sleeps) = (!approved(APPROVED), !approved(SLEEP_APPROVED));
    let toks = &sf.toks;
    for i in 0..toks.len() {
        let mut flag = |msg: String| {
            out.push(Diag {
                rel: sf.rel.clone(),
                line: toks[i].line,
                rule: NAME,
                msg,
            });
        };
        for root in ["Instant", "SystemTime"] {
            if reads && match_path(toks, i, &[root, "now"]) {
                flag(format!(
                    "host clock read `{root}::now()` — use clio_obs::clock::read() \
                     for latencies and spans or clio_types::time::Clock for semantic time"
                ));
            }
        }
        if sleeps && match_path(toks, i, &["thread", "sleep"]) {
            flag(
                "host sleep `thread::sleep` — spend modelled time with clio_obs::clock::hold \
                  (a host-paced clio_costmodel::LatencyDevice)"
                    .to_string(),
            );
        }
    }
}
