//! `one-map-reader`: entrymap records are read off the device in exactly
//! one place, `crates/entrymap/src/chain.rs`. The locator and the
//! pending-state rebuild each used to walk the displaced/`continued`
//! chain of a map with a loop of their own — one with a named window, one
//! with a literal `4` — which is how a fix reaches one reader and misses
//! the other (the catalog reader did exactly that, see `one-log-reader`).
//! Whatever needs a map's records in `clio-entrymap` or `clio-core` walks
//! them with `chain::read_map` and says what it wants from each record in
//! a closure. Test modules are exempt (tests decode records to check the
//! writer).

use crate::lexer::match_path;
use crate::{Diag, SourceFile};

/// Rule name used in diagnostics.
pub const NAME: &str = "one-map-reader";

const SCOPES: [&str; 2] = ["crates/entrymap/src/", "crates/core/src/"];
const READER: &str = "crates/entrymap/src/chain.rs";

/// Flags `EntrymapRecord::decode` and `EntrymapRecordView::parse` in
/// `clio-entrymap` and `clio-core` outside `chain.rs`.
pub fn check(sf: &SourceFile, out: &mut Vec<Diag>) {
    if !SCOPES.iter().any(|s| sf.rel.starts_with(s)) || sf.rel == READER {
        return;
    }
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if sf.in_test[i] {
            continue;
        }
        let found = if match_path(toks, i, &["EntrymapRecord", "decode"]) {
            "EntrymapRecord::decode"
        } else if match_path(toks, i, &["EntrymapRecordView", "parse"]) {
            "EntrymapRecordView::parse"
        } else {
            continue;
        };
        out.push(Diag {
            rel: sf.rel.clone(),
            line: toks[i].line,
            rule: NAME,
            msg: format!(
                "`{found}` outside chain.rs — a second entrymap reader; walk \
                 the map's records with `chain::read_map` instead"
            ),
        });
    }
}
