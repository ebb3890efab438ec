//! `worm-writes`: the device layer models write-once storage, and the
//! paper's whole integrity story (§2.3: a log file's committed prefix is
//! immutable) rests on every byte reaching the platter through one
//! audited surface. That surface is the host-file medium in
//! `crates/device/src/medium.rs`, which has no rule of its own and sits
//! under the one `WormDevice` that does. Anywhere else under
//! `crates/device/src`, raw file primitives — `OpenOptions`,
//! `File::create`, seeks, `set_len`, `fs::write` — are rejected, so a
//! future device can't quietly grow an unaudited rewrite path. Test
//! modules are exempt (crash tests deliberately corrupt files).

use crate::lexer::{match_path, Kind};
use crate::{Diag, SourceFile};

/// Rule name used in diagnostics.
pub const NAME: &str = "worm-writes";

const SCOPE: &str = "crates/device/src/";
const SURFACE: &str = "crates/device/src/medium.rs";

/// Flags raw file primitives in device code outside `medium.rs`.
pub fn check(sf: &SourceFile, out: &mut Vec<Diag>) {
    if !sf.rel.starts_with(SCOPE) || sf.rel == SURFACE {
        return;
    }
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if sf.in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != Kind::Ident {
            continue;
        }
        let after_dot = i > 0 && sf.is_punct(i - 1, ".");
        let found = match t.text.as_str() {
            "OpenOptions" | "SeekFrom" | "Seek" => Some(t.text.as_str()),
            "seek" | "set_len" | "seek_write" | "seek_read" if after_dot => Some(t.text.as_str()),
            "File" if match_path(toks, i, &["File", "create"]) => Some("File::create"),
            "File" if match_path(toks, i, &["File", "options"]) => Some("File::options"),
            "fs" if match_path(toks, i, &["fs", "write"]) => Some("fs::write"),
            _ => None,
        };
        if let Some(what) = found {
            out.push(Diag {
                rel: sf.rel.clone(),
                line: t.line,
                rule: NAME,
                msg: format!(
                    "raw file primitive `{what}` in the device layer — route it \
                     through the file medium in medium.rs, the audited WORM write surface"
                ),
            });
        }
    }
}
