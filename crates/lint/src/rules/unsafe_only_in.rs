//! `unsafe-only-in`: memory safety is the compiler's job everywhere but
//! in the functions named below, each with the reason it cannot be.
//! Anywhere else under `crates/*/src` — test modules included — the
//! `unsafe` keyword (blocks, functions, impls, traits) is rejected, so a
//! new use has to be argued for here, beside the existing one, in review.

use crate::lexer::Kind;
use crate::{item_end, Diag, SourceFile};

/// Rule name used in diagnostics.
pub const NAME: &str = "unsafe-only-in";

/// The functions `unsafe` may appear in, as `(file, fn name, reason)`.
/// The whole function is allowed, items nested in it included.
pub const ALLOWED: &[(&str, &str, &str)] = &[(
    "crates/types/src/crc.rs",
    "fold",
    "CRC32 by carry-less multiply: the `std::arch` PCLMULQDQ/SSE4.1 \
     intrinsics are `unsafe` to call, and are called only after \
     `is_x86_feature_detected!` has found both features",
)];

/// Whether `rel` is library source of a workspace crate (`crates/<c>/src/`).
fn in_scope(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
}

/// Token ranges of the bodies of `sf`'s allowed functions.
fn allowed_ranges(sf: &SourceFile) -> Vec<(usize, usize)> {
    let names: Vec<&str> = ALLOWED
        .iter()
        .filter(|(file, _, _)| *file == sf.rel)
        .map(|&(_, name, _)| name)
        .collect();
    let toks = &sf.toks;
    (1..toks.len())
        .filter(|&i| {
            toks[i].kind == Kind::Ident
                && names.contains(&toks[i].text.as_str())
                && toks[i - 1].kind == Kind::Ident
                && toks[i - 1].text == "fn"
        })
        .map(|i| (i, item_end(toks, i)))
        .collect()
}

/// Flags every `unsafe` under `crates/*/src` outside [`ALLOWED`].
pub fn check(sf: &SourceFile, out: &mut Vec<Diag>) {
    if !in_scope(&sf.rel) {
        return;
    }
    let allowed = allowed_ranges(sf);
    for (i, t) in sf.toks.iter().enumerate() {
        if t.kind != Kind::Ident || t.text != "unsafe" {
            continue;
        }
        if allowed.iter().any(|&(from, to)| (from..=to).contains(&i)) {
            continue;
        }
        out.push(Diag {
            rel: sf.rel.clone(),
            line: t.line,
            rule: NAME,
            msg: "`unsafe` outside the functions allowed in clio-lint's \
                  unsafe_only_in.rs — write it safely, or add the function \
                  there with the reason it cannot be"
                .to_string(),
        });
    }
}
