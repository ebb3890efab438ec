//! `one-log-reader`: `clio-core` turns block images into log entries in
//! exactly one place, `crates/core/src/read.rs`. Recovery used to carry a
//! private copy of that reader — its own `BlockSource`, its own fragment
//! reassembly — and the copy missed two fixes the real one got: it took a
//! catalog record whose chain crossed an entrymap-overflow block for torn,
//! and recovery came back without log files it had acknowledged. The
//! catalog log file is an ordinary log file (§2.2); whatever reads it goes
//! through `read.rs`. Test modules are exempt (tests inspect block layouts
//! on purpose).

use crate::lexer::{match_path, Kind};
use crate::{Diag, SourceFile};

/// Rule name used in diagnostics.
pub const NAME: &str = "one-log-reader";

const SCOPE: &str = "crates/core/src/";
const READER: &str = "crates/core/src/read.rs";

/// Flags `BlockView::parse`, `ParsedBlock::parse` and `impl BlockSource
/// for` in `clio-core` outside `read.rs`.
pub fn check(sf: &SourceFile, out: &mut Vec<Diag>) {
    if !sf.rel.starts_with(SCOPE) || sf.rel == READER {
        return;
    }
    let toks = &sf.toks;
    let is_ident = |i: usize, text: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == Kind::Ident && t.text == text)
    };
    for i in 0..toks.len() {
        if sf.in_test[i] {
            continue;
        }
        let found = if match_path(toks, i, &["BlockView", "parse"]) {
            "BlockView::parse"
        } else if match_path(toks, i, &["ParsedBlock", "parse"]) {
            "ParsedBlock::parse"
        } else if is_ident(i, "BlockSource") && is_ident(i + 1, "for") {
            "impl BlockSource"
        } else {
            continue;
        };
        out.push(Diag {
            rel: sf.rel.clone(),
            line: toks[i].line,
            rule: NAME,
            msg: format!(
                "`{found}` outside read.rs — a second log reader; build a \
                 `VolSource` and read entries through it instead"
            ),
        });
    }
}
