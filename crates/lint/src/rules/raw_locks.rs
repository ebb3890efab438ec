//! `no-raw-std-locks`: blocking `std::sync` primitives are forbidden
//! outside `crates/testkit`. Everything else takes its locks from
//! `clio_testkit::sync`, which is poison-transparent and — under
//! `CLIO_LOCKDEP=1` — feeds the lock-order validator. A raw std lock
//! would be invisible to lockdep, punching a hole in deadlock coverage.
//!
//! `std::sync::{Arc, atomic, OnceLock, mpsc, …}` stay allowed; only the
//! blocking primitives are policed.

use crate::lexer::{match_path, Kind};
use crate::{Diag, SourceFile};

/// Rule name used in diagnostics.
pub const NAME: &str = "no-raw-std-locks";

const BANNED: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Paths where raw std locks are legitimate: the instrumented wrappers
/// themselves (and lockdep's own internal state, which must not recurse
/// into instrumentation).
const ALLOWED_PREFIXES: &[&str] = &["crates/testkit/src/"];

/// Flags `std::sync::Mutex` / `RwLock` / `Condvar`, including grouped
/// imports like `use std::sync::{Arc, Mutex}`.
pub fn check(sf: &SourceFile, out: &mut Vec<Diag>) {
    if ALLOWED_PREFIXES.iter().any(|p| sf.rel.starts_with(p)) {
        return;
    }
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if !match_path(toks, i, &["std", "sync"]) || !sf.is_punct(i + 3, "::") {
            continue;
        }
        let after = i + 4;
        match toks.get(after) {
            Some(t) if t.kind == Kind::Ident && BANNED.contains(&t.text.as_str()) => {
                push(sf, t.line, &t.text, out);
            }
            Some(t) if t.kind == Kind::Punct && t.text == "{" => {
                let mut depth = 1usize;
                let mut j = after + 1;
                while j < toks.len() && depth > 0 {
                    let t = &toks[j];
                    if t.kind == Kind::Punct && t.text == "{" {
                        depth += 1;
                    } else if t.kind == Kind::Punct && t.text == "}" {
                        depth -= 1;
                    } else if t.kind == Kind::Ident && BANNED.contains(&t.text.as_str()) {
                        push(sf, t.line, &t.text, out);
                    }
                    j += 1;
                }
            }
            _ => {}
        }
    }
}

fn push(sf: &SourceFile, line: u32, name: &str, out: &mut Vec<Diag>) {
    // The kit has no reader-writer lock: a `RwLock` becomes a `Mutex`.
    let kit = if name == "RwLock" { "Mutex" } else { name };
    out.push(Diag {
        rel: sf.rel.clone(),
        line,
        rule: NAME,
        msg: format!(
            "raw std::sync::{name} — use clio_testkit::sync::{kit} so the lock \
             is poison-transparent and visible to lockdep"
        ),
    });
}
