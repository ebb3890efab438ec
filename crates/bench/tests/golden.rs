//! The paper-reproduction outputs as tests.
//!
//! Each golden harness must print exactly `golden/<name>.txt`: its text
//! is a pure function of the tree (`sec32_write` prints wall-clock lines
//! and has none). Each run smoke runs a harness in its smoke
//! configuration and checks that it completes and prints its title line.
//!
//! After a deliberate change to a harness's text, re-pin its golden from
//! the release binary, which prints the same bytes:
//! `./target/release/<name> > crates/bench/golden/<name>.txt`.

use std::io;
use std::path::Path;

use clio_bench::harness;
use clio_testkit::diff::line_diff;

type Run = fn(&mut Vec<u8>, &[String]) -> io::Result<()>;

/// Runs a harness in process with `args`; returns its text.
fn run(harness: Run, args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
    let mut out = Vec::new();
    harness(&mut out, &args).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("harness text is UTF-8")
}

fn check_golden(name: &str, harness: Run) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.txt"));
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let got = run(harness, &[]);
    assert!(
        got == want,
        "{name} no longer prints golden/{name}.txt (-golden +now):\n{}",
        line_diff(&want, &got)
    );
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

/// The run smokes: each harness's printed report, in its smoke
/// configuration, runs to the end, decodes as UTF-8 and opens with the
/// harness's title line.
mod report_decodes {
    use super::*;

    macro_rules! smokes {
        ($($name:ident [$($arg:literal),*] $title:literal),* $(,)?) => {$(
            #[test]
            fn $name() {
                let text = run(harness::$name::run, &[$($arg),*]);
                assert!(text.starts_with($title), "{}:\n{text}", stringify!($name));
            }
        )*};
    }

    smokes!(
        fig2_tree[] "Figure 2 — entrymap search tree",
        conc_read["--quick"] "Concurrent read scaling",
        group_commit["--quick"] "Group-commit coalescing",
        obs_http["--quick"] "Ops-plane scrape latency",
        multi_shard["--quick"] "Sharded append scaling",
        sec32_write[] "§3.2 — synchronous log write cost",
    );
}
