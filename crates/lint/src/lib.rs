#![warn(missing_docs)]
//! `clio-lint`: the workspace's in-tree static analysis tool.
//!
//! The workspace has policies that `rustc` cannot enforce — hermetic
//! std-only builds, lockdep-instrumented locking, deterministic time, the
//! WORM write surface, and a ratchet on `unwrap()` in library code. CI
//! used to police the first of these with a `grep` that could not tell a
//! dependency from a comment; this crate replaces it with named,
//! individually-testable rules over a real token stream (see
//! [`lexer`]). Rules:
//!
//! - `no-registry-deps` — retired registry crates (`parking_lot`,
//!   `crossbeam*`, `proptest`, `criterion`, `rand`) must not reappear in
//!   code or manifests; the in-tree `clio-testkit` replaces them.
//! - `no-raw-std-locks` — `std::sync::{Mutex, RwLock, Condvar}` are
//!   forbidden outside `crates/testkit`: everything else uses
//!   `clio_testkit::sync`, which is poison-transparent and feeds the
//!   lockdep lock-order validator.
//! - `no-raw-std-atomics` — `std::sync::atomic` is forbidden in library
//!   code outside `crates/testkit`: everything else uses
//!   `clio_testkit::sync::atomic`, whose ordering annotations the
//!   concurrency model checker validates.
//! - `no-wallclock` — `Instant::now()` / `SystemTime::now()` only in the
//!   approved timing modules; product code uses `clio_obs::clock::now()`
//!   (observability) or `clio_types::time::Clock` (semantic time).
//! - `worm-writes` — inside `crates/device`, raw file primitives
//!   (`OpenOptions`, seeks, `set_len`, …) are confined to `medium.rs`,
//!   the audited write surface of the write-once storage model.
//! - `no-env-config` — `std::env::var*` only in `crates/testkit`,
//!   `crates/bench`, `crates/lint` and the root `src/bin`: library
//!   behaviour is a function of the configuration passed in, never of an
//!   environment variable no call site shows.
//! - `one-log-reader` — inside `crates/core/src`, `BlockView::parse`,
//!   `ParsedBlock::parse` and `impl BlockSource` are confined to
//!   `read.rs`: recovery and everything else read log entries through
//!   the one reader, so a reader fix cannot miss a private copy.
//! - `one-map-reader` — inside `crates/entrymap/src` and
//!   `crates/core/src`, `EntrymapRecord::decode` and
//!   `EntrymapRecordView::parse` are confined to `entrymap/src/chain.rs`:
//!   the locator and the rebuild walk a map's displaced/`continued`
//!   record chain with the same function, window and termination rule.
//! - `unwrap-ratchet` — per-crate counts of `.unwrap()` and undocumented
//!   `.expect(...)` in library code, compared against the committed
//!   baseline in `lint/ratchet.toml`, which may only go down.
//!
//! The binary lints the whole workspace: every `crates/*` member plus the
//! root package's `src/`, `tests/` and `examples/`, and all `Cargo.toml`
//! manifests. Directories named `fixtures` are skipped so each rule's
//! deliberately-bad test fixtures don't fail the tree.

pub mod lexer;
pub mod ratchet;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use lexer::{Kind, Tok};

/// One lint finding, printable as `path:line: [rule] message`.
#[derive(Clone, Debug)]
pub struct Diag {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// 1-based line, or 0 when the finding is file-level.
    pub line: u32,
    /// The rule name, e.g. `no-registry-deps`.
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub msg: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel, self.line, self.rule, self.msg
        )
    }
}

/// A lexed source file plus its `#[cfg(test)]` region mask.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// The token stream (comments and whitespace already gone).
    pub toks: Vec<Tok>,
    /// `in_test[i]` is true when token `i` sits inside a
    /// `#[cfg(test)]`-gated item (typically an inline `mod tests`).
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Lexes `src` and computes the test-region mask. `rel` need not
    /// exist on disk — rule self-tests feed fixtures through here with
    /// synthetic paths.
    pub fn parse(rel: impl Into<String>, src: &str) -> SourceFile {
        let toks = lexer::lex(src);
        let in_test = mark_test_regions(&toks);
        SourceFile {
            rel: rel.into(),
            toks,
            in_test,
        }
    }

    pub(crate) fn is_punct(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == Kind::Punct && t.text == s)
    }
}

fn is_punct(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == Kind::Punct && t.text == s)
}

/// Index of the token closing the bracket opened at `open` (which must
/// hold the opening delimiter), or `None` if unbalanced.
pub(crate) fn matching(toks: &[Tok], open: usize, open_s: &str, close_s: &str) -> Option<usize> {
    let mut depth = 1usize;
    let mut i = open + 1;
    while i < toks.len() {
        if is_punct(toks, i, open_s) {
            depth += 1;
        } else if is_punct(toks, i, close_s) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Index of the last token of the item starting at `start` (after its
/// attributes): either the `;` ending a declaration or the `}` closing
/// the first top-level brace body.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < toks.len() {
        if is_punct(toks, i, "(") || is_punct(toks, i, "[") {
            depth += 1;
        } else if is_punct(toks, i, ")") || is_punct(toks, i, "]") {
            depth = depth.saturating_sub(1);
        } else if is_punct(toks, i, "{") && depth == 0 {
            return matching(toks, i, "{", "}").unwrap_or(toks.len() - 1);
        } else if is_punct(toks, i, ";") && depth == 0 {
            return i;
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Marks every token belonging to a `#[cfg(test)]`-gated item.
///
/// This is token-level, not syntactic: an attribute whose tokens include
/// both `cfg` and `test` (and not `not`, so `#[cfg(not(test))]` stays
/// live code) gates the item that follows, which extends to the matching
/// `}` of its first top-level brace or to a top-level `;`.
fn mark_test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !(is_punct(toks, i, "#") && is_punct(toks, i + 1, "[")) {
            i += 1;
            continue;
        }
        let Some(attr_end) = matching(toks, i + 1, "[", "]") else {
            break;
        };
        let has = |name: &str| {
            toks[i..=attr_end]
                .iter()
                .any(|t| t.kind == Kind::Ident && t.text == name)
        };
        if !(has("cfg") && has("test") && !has("not")) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = attr_end + 1;
        while is_punct(toks, j, "#") && is_punct(toks, j + 1, "[") {
            match matching(toks, j + 1, "[", "]") {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        let end = item_end(toks, j);
        for m in &mut mask[i..=end] {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// The lintable content of the workspace.
pub struct Workspace {
    /// Every Rust source under the scanned roots, sorted by path.
    pub rust: Vec<SourceFile>,
    /// Every `Cargo.toml` as `(rel, content)`, sorted by path.
    pub tomls: Vec<(String, String)>,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", ".claude"];

/// Top-level entries that are scanned (everything else at the root —
/// docs, scripts, lint state — holds no lintable code).
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benches"];

/// Loads every Rust file and manifest under `root`.
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let mut ws = Workspace {
        rust: Vec::new(),
        tomls: Vec::new(),
    };
    if root.join("Cargo.toml").is_file() {
        ws.tomls.push((
            "Cargo.toml".to_string(),
            fs::read_to_string(root.join("Cargo.toml"))?,
        ));
    }
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut ws)?;
        }
    }
    ws.rust.sort_by(|a, b| a.rel.cmp(&b.rel));
    ws.tomls.sort();
    Ok(ws)
}

fn walk(root: &Path, dir: &Path, ws: &mut Workspace) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(root, &path, ws)?;
            }
        } else if ty.is_file() {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if name == "Cargo.toml" {
                ws.tomls.push((rel, fs::read_to_string(&path)?));
            } else if name.ends_with(".rs") {
                let src = fs::read_to_string(&path)?;
                ws.rust.push(SourceFile::parse(rel, &src));
            }
        }
    }
    Ok(())
}

/// The result of checking a [`Workspace`].
pub struct Report {
    /// All findings from the path/token rules (the ratchet comparison is
    /// separate — see [`rules::unwrap_ratchet::compare`]).
    pub diags: Vec<Diag>,
    /// Number of Rust files checked.
    pub rust_files: usize,
    /// Per-crate library-code unwrap/expect counts for the ratchet.
    pub unwrap_counts: BTreeMap<String, u64>,
}

/// Runs every rule over the workspace.
#[must_use]
pub fn check_workspace(ws: &Workspace) -> Report {
    let mut diags = Vec::new();
    let mut unwrap_counts: BTreeMap<String, u64> = BTreeMap::new();
    for sf in &ws.rust {
        rules::check_source(sf, &mut diags);
        if let Some(key) = rules::unwrap_ratchet::crate_key(&sf.rel) {
            *unwrap_counts.entry(key).or_insert(0) += rules::unwrap_ratchet::count_file(sf);
        }
    }
    for (rel, content) in &ws.tomls {
        rules::registry_deps::check_toml(rel, content, &mut diags);
    }
    diags.sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));
    Report {
        diags,
        rust_files: ws.rust.len(),
        unwrap_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_inline_mod_tests() {
        let sf = SourceFile::parse(
            "crates/x/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { inner(); }\n}\nfn after() {}",
        );
        let live: Vec<&str> = sf
            .toks
            .iter()
            .zip(&sf.in_test)
            .filter(|&(t, &m)| !m && t.kind == Kind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(live.contains(&"live"));
        assert!(live.contains(&"after"));
        assert!(!live.contains(&"inner"));
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let sf = SourceFile::parse(
            "crates/x/src/lib.rs",
            "#[cfg(not(test))]\nfn shipped() { body(); }",
        );
        assert!(sf.in_test.iter().all(|&m| !m));
    }

    #[test]
    fn attribute_stacks_and_semicolon_items_are_masked() {
        let sf = SourceFile::parse(
            "crates/x/src/lib.rs",
            "#[cfg(test)]\n#[allow(dead_code)]\nuse std::sync::Mutex;\nfn live() {}",
        );
        let masked: Vec<&str> = sf
            .toks
            .iter()
            .zip(&sf.in_test)
            .filter(|&(_, &m)| m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"Mutex"));
        let live: Vec<&str> = sf
            .toks
            .iter()
            .zip(&sf.in_test)
            .filter(|&(t, &m)| !m && t.kind == Kind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert_eq!(live, vec!["fn", "live"]);
    }
}
