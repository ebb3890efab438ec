//! The `clio-lint` binary: lints the whole workspace and exits non-zero
//! on any violation. See the library docs for the rule catalogue.
//!
//! ```text
//! clio-lint [--root DIR] [--update-ratchet]
//! ```
//!
//! `--root` defaults to the current directory (CI runs it from the
//! workspace root). `--update-ratchet` rewrites `lint/ratchet.toml` from
//! the measured unwrap/expect counts instead of comparing against it —
//! use it after burning down unwraps, then commit the lowered baseline.

use std::path::PathBuf;
use std::process::ExitCode;

use clio_lint::rules::unwrap_ratchet;
use clio_lint::{check_workspace, load_workspace, ratchet, Diag};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut update_ratchet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("clio-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--update-ratchet" => update_ratchet = true,
            "--help" | "-h" => {
                println!("usage: clio-lint [--root DIR] [--update-ratchet]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("clio-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let ws = match load_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "clio-lint: cannot read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    let report = check_workspace(&ws);
    let mut diags = report.diags;

    let ratchet_path = root.join(unwrap_ratchet::RATCHET_REL);
    if update_ratchet {
        let text = ratchet::render(&report.unwrap_counts);
        if let Some(dir) = ratchet_path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("clio-lint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&ratchet_path, text) {
            eprintln!("clio-lint: cannot write {}: {e}", ratchet_path.display());
            return ExitCode::from(2);
        }
        let unwraps: u64 = report.unwrap_counts.values().sum();
        eprintln!(
            "clio-lint: wrote {} ({} crates, {unwraps} ratcheted unwraps)",
            ratchet_path.display(),
            report.unwrap_counts.len()
        );
    } else {
        match std::fs::read_to_string(&ratchet_path) {
            Ok(text) => {
                unwrap_ratchet::compare(&report.unwrap_counts, &text, &mut diags);
            }
            Err(_) => diags.push(Diag {
                rel: unwrap_ratchet::RATCHET_REL.to_string(),
                line: 0,
                rule: unwrap_ratchet::NAME,
                msg: "baseline file missing — run clio-lint --update-ratchet and commit it"
                    .to_string(),
            }),
        }
    }

    diags.sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        eprintln!(
            "clio-lint: clean ({} Rust files, {} manifests)",
            report.rust_files,
            ws.tomls.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("clio-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
