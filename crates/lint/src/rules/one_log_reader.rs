//! `one-log-reader`: `clio-core` turns block images into log entries in
//! exactly one place, `crates/core/src/read.rs`. Recovery used to carry a
//! private copy of that reader — its own `BlockSource`, its own fragment
//! reassembly — and the copy missed two fixes the real one got: it took a
//! catalog record whose chain crossed an entrymap-overflow block for torn,
//! and recovery came back without log files it had acknowledged. The
//! catalog log file is an ordinary log file (§2.2); whatever reads it goes
//! through `read.rs`.
//!
//! The entrymap searches (`clio-entrymap`) look at blocks only through
//! `BlockSource::verified`, whose provided default in `source.rs` is the
//! one place there that checks a block: a source decides where a block's
//! CRC is checked, and one that holds verified blocks — the service's open
//! block, sealed queue and cache — serves them without a second check. A
//! search that parses an image itself checks it again on every visit.
//!
//! Test modules are exempt (tests inspect block layouts on purpose).

use crate::lexer::{match_path, Kind};
use crate::{Diag, SourceFile};

/// Rule name used in diagnostics.
pub const NAME: &str = "one-log-reader";

const CORE: &str = "crates/core/src/";
const READER: &str = "crates/core/src/read.rs";
const ENTRYMAP: &str = "crates/entrymap/src/";
const SOURCE: &str = "crates/entrymap/src/source.rs";

/// Flags `BlockView::parse`, `ParsedBlock::parse` and `impl BlockSource
/// for` in `clio-core` outside `read.rs`, and the two parses in
/// `clio-entrymap` outside `source.rs`.
pub fn check(sf: &SourceFile, out: &mut Vec<Diag>) {
    let core = sf.rel.starts_with(CORE) && sf.rel != READER;
    let entrymap = sf.rel.starts_with(ENTRYMAP) && sf.rel != SOURCE;
    if !core && !entrymap {
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
        } else if core && is_ident(i, "BlockSource") && is_ident(i + 1, "for") {
            "impl BlockSource"
        } else {
            continue;
        };
        let msg = if core {
            format!(
                "`{found}` outside read.rs — a second log reader; build a \
                 `VolSource` and read entries through it instead"
            )
        } else {
            format!(
                "`{found}` outside source.rs — a search checking blocks \
                 itself; take them through `BlockSource::verified` instead"
            )
        };
        out.push(Diag {
            rel: sf.rel.clone(),
            line: toks[i].line,
            rule: NAME,
            msg,
        });
    }
}
