//! `no-raw-std-atomics`: `std::sync::atomic` is forbidden in library
//! code outside `crates/testkit`. Everything else takes its atomics from
//! `clio_testkit::sync::atomic` — the same types with the same
//! explicit-ordering APIs, but under a model-checked run every access is
//! a scheduling point and its declared ordering feeds the vector-clock
//! race detector, so a publication over a `Relaxed` flag is *caught*,
//! not merely reviewed. Statistics go one step further and count through
//! `clio_obs::{Counter, Gauge, Histogram}`, which are built on the same
//! wrappers.
//!
//! Library code is what the unwrap ratchet calls library code
//! (`crates/*/src`, the root `src/`), `#[cfg(test)]` regions excluded.

use crate::lexer::{match_path, Kind};
use crate::rules::unwrap_ratchet;
use crate::{matching, Diag, SourceFile};

/// Rule name used in diagnostics.
pub const NAME: &str = "no-raw-std-atomics";

/// Paths where raw atomics are legitimate: the wrappers themselves (the
/// model checker's own scheduler state is necessarily raw), and
/// `ManualClock`, the one virtual clock — `clio-types` is the root of the
/// crate graph and depends on nothing, `clio-testkit` included. Giving it
/// that edge would rewrite `perf/Cargo.lock`, which the benchmark builds
/// from as committed.
const ALLOWED_PREFIXES: &[&str] = &["crates/testkit/src/", "crates/types/src/time.rs"];

/// Flags `std::sync::atomic`, as a path or inside a grouped
/// `std::sync::{...}` import.
pub fn check(sf: &SourceFile, out: &mut Vec<Diag>) {
    if unwrap_ratchet::crate_key(&sf.rel).is_none()
        || ALLOWED_PREFIXES.iter().any(|p| sf.rel.starts_with(p))
    {
        return;
    }
    let toks = &sf.toks;
    let is_atomic = |j: usize| toks[j].kind == Kind::Ident && toks[j].text == "atomic";
    for i in 0..toks.len() {
        if sf.in_test[i] || !match_path(toks, i, &["std", "sync"]) || !sf.is_punct(i + 3, "::") {
            continue;
        }
        let after = i + 4;
        let group = if sf.is_punct(after, "{") {
            after + 1..matching(toks, after, "{", "}").unwrap_or(toks.len())
        } else {
            after..toks.len().min(after + 1)
        };
        for j in group.filter(|&j| is_atomic(j)) {
            out.push(Diag {
                rel: sf.rel.clone(),
                line: toks[j].line,
                rule: NAME,
                msg: "raw std::sync::atomic — use clio_testkit::sync::atomic, whose orderings \
                      the model checker validates (or a clio_obs handle for a statistic)"
                    .to_string(),
            });
        }
    }
}
