//! `no-env-config`: a library's behaviour is a function of the
//! configuration its caller passes in. A product crate that consults
//! `std::env::var*` grows a setting no call site shows — the pipeline
//! switch that used to be read inside `ServiceConfig::default()`
//! silently forked every test and benchmark run, and the external
//! benchmark had to scrub its environment because of it. Environment reads belong to test tooling and binaries, which
//! turn them into explicit configuration.

use crate::lexer::match_path;
use crate::rules::unwrap_ratchet::crate_key;
use crate::{Diag, SourceFile};

/// Rule name used in diagnostics.
pub const NAME: &str = "no-env-config";

/// Where reading the environment is the point: the test/bench toolkit
/// (seeds, lockdep and model-check switches), benchmark drivers, this
/// linter, and the root package's binaries.
const APPROVED: &[&str] = &[
    "crates/testkit/",
    "crates/bench/",
    "crates/lint/",
    "src/bin/",
];

/// Flags `env::var`, `env::var_os`, `env::vars` and `env::vars_os` in
/// library code outside the approved homes. Test code (`#[cfg(test)]`
/// regions, `tests/`, `examples/`, `benches/`) is exempt: it is where a
/// replay seed legitimately enters. `env::args` is not configuration by
/// stealth and stays legal everywhere.
pub fn check(sf: &SourceFile, out: &mut Vec<Diag>) {
    if crate_key(&sf.rel).is_none() || APPROVED.iter().any(|p| sf.rel.starts_with(p)) {
        return;
    }
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if sf.in_test[i] {
            continue;
        }
        for read in ["var", "var_os", "vars", "vars_os"] {
            if match_path(toks, i, &["env", read]) {
                out.push(Diag {
                    rel: sf.rel.clone(),
                    line: toks[i].line,
                    rule: NAME,
                    msg: format!(
                        "environment read `env::{read}` in library code — take the \
                         value as an explicit config field or argument instead"
                    ),
                });
            }
        }
    }
}
