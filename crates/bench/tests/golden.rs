//! The paper-reproduction outputs as tests.
//!
//! Each golden harness must print exactly `golden/<name>.txt`: its text
//! is a pure function of the tree (`sec32_write` prints wall-clock lines
//! and has none). Each harness with a `--json` report, run as its smoke
//! configuration, must produce a report that decodes with the in-tree
//! JSON parser back to the values it recorded, and `bench_diff` must
//! tell a report from a doctored copy of it.
//!
//! After a deliberate change to a harness's text, re-pin its golden from
//! the release binary, which prints the same bytes:
//! `./target/release/<name> > crates/bench/golden/<name>.txt`.

use std::io;
use std::path::Path;

use clio_bench::harness;
use clio_bench::report::Report;
use clio_obs::json;
use clio_testkit::diff::line_diff;

type Run = fn(&mut Vec<u8>, &[String]) -> io::Result<Report>;

/// Runs a harness in process with `args`; returns its text and report.
fn run(harness: Run, args: &[&str]) -> (String, Report) {
    let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
    let mut out = Vec::new();
    let report = harness(&mut out, &args).expect("writing to a Vec cannot fail");
    let text = String::from_utf8(out).expect("harness text is UTF-8");
    (text, report)
}

fn check_golden(name: &str, harness: Run) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.txt"));
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let (got, _) = run(harness, &[]);
    assert!(
        got == want,
        "{name} no longer prints golden/{name}.txt (-golden +now):\n{}",
        line_diff(&want, &got)
    );
}

fn check_report_decodes(name: &str, harness: Run, args: &[&str]) {
    let (_, report) = run(harness, args);
    let recorded = report.to_json();
    let text = recorded.encode_pretty();
    let decoded = json::parse(&text)
        .unwrap_or_else(|e| panic!("{name}'s report does not parse: {e}\n{text}"));
    assert!(
        decoded == recorded,
        "{name}'s report decodes to other values than it recorded \
         (a non-finite float encodes as null):\n{text}"
    );
}

/// `bench_diff` exits 0 for a report against itself and 1 once a number
/// rises past its threshold: the exit status `scripts/ci.sh`'s sharded-path
/// guard acts on.
#[test]
fn bench_diff_exits_nonzero_on_a_regression() {
    let (_, report) = run(harness::fig2_tree::run, &[]);
    let text = report.to_json().encode_pretty();
    let doctored = text.replace("\"marked_blocks\": 5", "\"marked_blocks\": 500");
    assert_ne!(doctored, text, "the doctored scalar is in the report");
    let dir = std::env::temp_dir().join(format!("clio-bench-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    let (old, new) = (dir.join("old.json"), dir.join("new.json"));
    std::fs::write(&old, &text).expect("write old.json");
    std::fs::write(&new, &doctored).expect("write new.json");
    let status = |a: &Path, b: &Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_bench_diff"))
            .args([a, b])
            .output()
            .expect("run bench_diff")
            .status
            .code()
    };
    let (same, worse) = (status(&old, &old), status(&old, &new));
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
    assert_eq!(same, Some(0), "a report against itself");
    assert_eq!(worse, Some(1), "a scalar up 100x");
}

macro_rules! goldens {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check_golden(stringify!($name), harness::$name::run);
        }
    )*};
}

goldens!(
    fig2_tree,
    fig3_locate,
    table1_read,
    fig4_init,
    sec33_cold,
    sec35_space,
    mot_fs,
    abl_ramtail,
    abl_fanout,
    abl_locators,
    sec4_hbfs,
);

/// The `--json` smokes: each report must decode to what it recorded.
mod report_decodes {
    use super::*;

    macro_rules! smokes {
        ($($name:ident [$($arg:literal),*]),* $(,)?) => {$(
            #[test]
            fn $name() {
                check_report_decodes(stringify!($name), harness::$name::run, &[$($arg),*]);
            }
        )*};
    }

    smokes!(
        fig2_tree[],
        conc_read["--quick"],
        group_commit["--quick"],
        obs_http["--quick"],
        multi_shard["--quick"],
        sec32_write[],
    );
}
