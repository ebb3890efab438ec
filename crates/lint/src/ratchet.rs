//! The ratchet baseline file, `lint/ratchet.toml`.
//!
//! A deliberately tiny TOML subset — comments, a fixed set of named
//! sections (today just `[unwrap]`), `key = integer` pairs — parsed
//! in-tree because the workspace takes no registry dependencies.
//! [`render`] regenerates the file in canonical form so
//! `--update-ratchet` output is always diff-stable.
//!
//! [`compare`] checks measured per-crate counts against one section: any
//! drift — regression, unlocked improvement, missing crate, stale entry
//! — is a diagnostic.

use std::collections::BTreeMap;

use crate::rules::unwrap_ratchet;
use crate::Diag;

/// The sections a baseline file may contain, in file order.
pub const SECTIONS: &[&str] = &["unwrap"];

/// Per-crate entries of one section: `key -> (count, line)` (the line is
/// kept so ratchet diagnostics point at the entry to edit).
pub type Section = BTreeMap<String, (u64, u32)>;

/// Parses a baseline file into its sections.
pub fn parse(content: &str) -> Result<BTreeMap<String, Section>, String> {
    let mut out: BTreeMap<String, Section> = BTreeMap::new();
    let mut current: Option<String> = None;
    for (n, raw) in content.lines().enumerate() {
        let lineno = u32::try_from(n + 1).unwrap_or(u32::MAX);
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let section = section.trim();
            if !SECTIONS.contains(&section) {
                return Err(format!("line {lineno}: unknown section [{section}]"));
            }
            if out.contains_key(section) {
                return Err(format!("line {lineno}: duplicate section [{section}]"));
            }
            out.insert(section.to_string(), Section::new());
            current = Some(section.to_string());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {lineno}: expected `key = count`, got `{line}`"
            ));
        };
        let Some(section) = &current else {
            return Err(format!("line {lineno}: entry outside any section"));
        };
        let key = key.trim().to_string();
        let count: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {lineno}: `{}` is not a count", value.trim()))?;
        let entries = out
            .get_mut(section)
            .expect("invariant: current section was inserted");
        if entries.insert(key.clone(), (count, lineno)).is_some() {
            return Err(format!("line {lineno}: duplicate entry `{key}`"));
        }
    }
    Ok(out)
}

/// Renders measured counts as a canonical baseline file.
#[must_use]
pub fn render(unwrap: &BTreeMap<String, u64>) -> String {
    let mut s = String::from(
        "# clio-lint ratchet baselines: per-crate counts that may only go\n\
         # down. After an improvement, regenerate with:\n\
         #\n\
         #     cargo run --release --offline -p clio-lint -- --update-ratchet\n\
         #\n\
         # [unwrap]: `.unwrap()` and undocumented `.expect(...)` in library\n\
         # code (crates/*/src and the root src/); `expect(\"invariant: ...\")`\n\
         # is exempt.\n",
    );
    s.push_str("\n[unwrap]\n");
    for (key, count) in unwrap {
        s.push_str(&format!("{key} = {count}\n"));
    }
    s
}

/// Compares measured per-crate unwrap counts against the `[unwrap]`
/// section of the baseline file, emitting a diagnostic for every
/// regression, improvement (the baseline must then be lowered), missing
/// crate, or stale entry.
pub fn compare(counts: &BTreeMap<String, u64>, baseline_text: &str, out: &mut Vec<Diag>) {
    let diag = |line: u32, msg: String| Diag {
        rel: unwrap_ratchet::RATCHET_REL.to_string(),
        line,
        rule: unwrap_ratchet::NAME,
        msg,
    };
    let sections = match parse(baseline_text) {
        Ok(s) => s,
        Err(e) => {
            out.push(diag(0, format!("malformed baseline: {e}")));
            return;
        }
    };
    let empty = Section::new();
    let baseline = sections.get("unwrap").unwrap_or(&empty);
    for (key, &count) in counts {
        match baseline.get(key) {
            None => out.push(diag(
                0,
                format!("crate `{key}` has no [unwrap] baseline entry — run --update-ratchet"),
            )),
            Some(&(base, line)) if count > base => out.push(diag(
                line,
                format!(
                    "library unwrap/expect count for `{key}` regressed: {base} -> {count} \
                     (the ratchet only goes down; handle the error or document the \
                     impossibility as expect(\"invariant: ...\"))"
                ),
            )),
            Some(&(base, line)) if count < base => out.push(diag(
                line,
                format!(
                    "`{key}` improved to {count} (baseline {base}) — lock it in with \
                     --update-ratchet"
                ),
            )),
            Some(_) => {}
        }
    }
    for (key, &(_, line)) in baseline {
        if !counts.contains_key(key) {
            out.push(diag(
                line,
                format!("stale baseline entry `{key}` (no such crate) — run --update-ratchet"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_canonical_form() {
        let mut unwrap = BTreeMap::new();
        unwrap.insert("core".to_string(), 7u64);
        unwrap.insert("device".to_string(), 0u64);
        let text = render(&unwrap);
        let parsed = parse(&text).expect("canonical form parses");
        assert_eq!(parsed["unwrap"].len(), 2);
        assert_eq!(parsed["unwrap"]["core"].0, 7);
        assert_eq!(parsed["unwrap"]["device"].0, 0);
    }

    #[test]
    fn rejects_junk() {
        assert!(parse("[other]\n").is_err());
        assert!(parse("core = 1\n").is_err(), "entry before section");
        assert!(parse("[unwrap]\ncore = x\n").is_err());
        assert!(parse("[unwrap]\ncore = 1\ncore = 2\n").is_err());
        assert!(parse("[unwrap]\n[unwrap]\n").is_err(), "duplicate section");
    }

    #[test]
    fn missing_section_reads_as_empty() {
        let parsed = parse("# no sections at all\n").expect("an empty baseline parses");
        assert!(!parsed.contains_key("unwrap"));
    }
}
