//! The documents every change reads before it starts stay within a
//! budget: EXPERIMENTS.md and DESIGN.md have a size limit, each
//! CHANGES.md entry below the budget marker has one, and every
//! EXPERIMENTS.md section another document cites by name still exists.

use std::path::Path;

/// Sizes in bytes (1 KB = 1,000 bytes).
const EXPERIMENTS_MAX: usize = 40_000;
const DESIGN_MAX: usize = 60_000;
const CHANGES_ENTRY_MAX: usize = 2_000;

/// CHANGES.md entries after this line are held to `CHANGES_ENTRY_MAX`.
const CHANGES_MARKER: &str = "Entries below this line are held to 2 KB each";

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn experiments_and_design_fit_their_budgets() {
    for (name, max) in [
        ("EXPERIMENTS.md", EXPERIMENTS_MAX),
        ("DESIGN.md", DESIGN_MAX),
    ] {
        let len = read(name).len();
        assert!(
            len <= max,
            "{name} is {len} bytes, over its {max}-byte budget: cut history, keep what is"
        );
    }
}

/// Splits a document into entries: each starts at a line with no leading
/// whitespace and runs through the indented lines under it.
fn entries(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in text.lines() {
        match out.last_mut() {
            Some(entry) if line.is_empty() || line.starts_with(char::is_whitespace) => {
                entry.push_str(line);
                entry.push('\n');
            }
            _ if line.is_empty() => {}
            _ => out.push(format!("{line}\n")),
        }
    }
    out
}

#[test]
fn new_changes_entries_fit_their_budget() {
    let changes = read("CHANGES.md");
    let (_, budgeted) = changes
        .split_once(CHANGES_MARKER)
        .expect("CHANGES.md keeps its budget marker");
    let budgeted = budgeted.split_once('\n').map_or("", |(_, rest)| rest);
    for entry in entries(budgeted) {
        assert!(
            entry.len() <= CHANGES_ENTRY_MAX,
            "a CHANGES.md entry is {} bytes, over {CHANGES_ENTRY_MAX}:\n{entry}",
            entry.len()
        );
    }
}

#[test]
fn cited_experiments_sections_exist() {
    let headings: Vec<String> = read("EXPERIMENTS.md")
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .map(str::to_owned)
        .collect();
    for doc in ["CHANGES.md", "ROADMAP.md", "DESIGN.md", "README.md"] {
        // One space for every run of whitespace, so a citation may wrap.
        let text = read(doc).split_whitespace().collect::<Vec<_>>().join(" ");
        for cite in text.split("EXPERIMENTS.md \"").skip(1) {
            let name = cite.split('"').next().unwrap_or_default();
            assert!(
                headings.iter().any(|h| h.starts_with(name)),
                "{doc} cites EXPERIMENTS.md \"{name}\", which has no such section"
            );
        }
    }
}

#[test]
fn entries_split_at_unindented_lines() {
    let got = entries("- a\n  more\n\n- b\nFOUND: c\n");
    assert_eq!(got, ["- a\n  more\n\n", "- b\n", "FOUND: c\n"]);
}
