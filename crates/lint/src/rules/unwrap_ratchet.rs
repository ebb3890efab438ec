//! `unwrap-ratchet`: library code (everything under `crates/*/src` and
//! the root `src/`) should propagate errors or document why a panic is
//! impossible. Rather than forbid `unwrap()` outright — which invites a
//! mass mechanical rewrite — the rule counts `.unwrap()` calls and
//! `.expect(...)` calls whose message does *not* start with
//! `"invariant: "`, per crate, and compares against the committed
//! baseline in `lint/ratchet.toml`. Counts may only go down; the
//! baseline must be lowered (via `--update-ratchet`) as code improves,
//! so progress can't silently erode.
//!
//! `expect("invariant: …")` is the sanctioned way to assert a local
//! impossibility: the message documents the reasoning, and the ratchet
//! exempts it. Test code (`#[cfg(test)]` regions, `tests/`, `examples/`,
//! `benches/`) is not counted at all.

use crate::lexer::Kind;
pub use crate::ratchet::compare;
use crate::SourceFile;

/// Rule name used in diagnostics.
pub const NAME: &str = "unwrap-ratchet";

/// Where the committed baseline lives, relative to the workspace root.
pub const RATCHET_REL: &str = "lint/ratchet.toml";

/// The ratchet key for `rel`, or `None` when the file isn't library
/// code. `crates/<name>/src/**` maps to `<name>`; the root package's
/// `src/**` maps to `clio`.
#[must_use]
pub fn crate_key(rel: &str) -> Option<String> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (name, inner) = rest.split_once('/')?;
        inner.starts_with("src/").then(|| name.to_string())
    } else if rel.starts_with("src/") {
        Some("clio".to_string())
    } else {
        None
    }
}

/// Counts ratcheted unwrap/expect calls in one file's non-test code.
#[must_use]
pub fn count_file(sf: &SourceFile) -> u64 {
    let mut n = 0u64;
    for (i, t) in sf.toks.iter().enumerate() {
        if sf.in_test[i] || t.kind != Kind::Ident {
            continue;
        }
        // Only method-call position: `.unwrap(` / `.expect(`.
        if i == 0 || !sf.is_punct(i - 1, ".") || !sf.is_punct(i + 1, "(") {
            continue;
        }
        match t.text.as_str() {
            "unwrap" => n += 1,
            "expect" => {
                let documented = sf
                    .toks
                    .get(i + 2)
                    .is_some_and(|a| a.kind == Kind::Str && a.text.starts_with("invariant:"));
                if !documented {
                    n += 1;
                }
            }
            _ => {}
        }
    }
    n
}
