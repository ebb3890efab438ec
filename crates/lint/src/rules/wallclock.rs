//! `no-wallclock`: determinism policy. Test schedules and recovery
//! results must be replayable, so product code never reads the host
//! clock directly. Latency spans come from `clio_obs::clock::now()`;
//! semantic timestamps come from `clio_types::time::Clock`, which tests
//! replace with a logical clock. Only the approved timing modules may
//! call `Instant::now()` / `SystemTime::now()` themselves.

use crate::lexer::match_path;
use crate::{Diag, SourceFile};

/// Rule name used in diagnostics.
pub const NAME: &str = "no-wallclock";

/// Where direct host-clock reads are the point:
/// - `crates/obs/src/` — `clio_obs::clock` is the sanctioned funnel, and
///   trace timestamps are observability;
/// - `crates/bench/` — benchmark drivers measure wall time;
/// - `crates/testkit/src/bench.rs` — the in-tree bench timer;
/// - `crates/testkit/src/check.rs` — the model checker reports wall
///   time per exploration (its *schedules* are deterministic; the
///   timing is reporting only, like the bench timer);
/// - `crates/types/src/time.rs` — `SystemClock`, the one production
///   implementation of the semantic `Clock` trait.
///
/// `crates/costmodel/` is deliberately NOT approved: the cost models and the
/// whole-system simulator derive every instant from seeded state, and a
/// stray host-clock read there would silently break seed replay.
const APPROVED: &[&str] = &[
    "crates/obs/src/",
    "crates/bench/",
    "crates/testkit/src/bench.rs",
    "crates/testkit/src/check.rs",
    "crates/types/src/time.rs",
];

/// Flags `Instant::now()` and `SystemTime::now()` outside the approved
/// modules (test code included: deterministic tests are the point).
pub fn check(sf: &SourceFile, out: &mut Vec<Diag>) {
    if APPROVED.iter().any(|p| sf.rel.starts_with(p)) {
        return;
    }
    let toks = &sf.toks;
    for i in 0..toks.len() {
        for root in ["Instant", "SystemTime"] {
            if match_path(toks, i, &[root, "now"]) {
                out.push(Diag {
                    rel: sf.rel.clone(),
                    line: toks[i].line,
                    rule: NAME,
                    msg: format!(
                        "host clock read `{root}::now()` — use clio_obs::clock::now() \
                         for latency spans or clio_types::time::Clock for semantic time"
                    ),
                });
            }
        }
    }
}
