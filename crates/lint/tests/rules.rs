//! Per-rule self-tests over the fixtures in `tests/fixtures/`. Each rule
//! is fed deliberately-bad and deliberately-clean sources through the
//! library API with synthetic workspace-relative paths; the fixtures
//! live in a `fixtures/` directory precisely so the workspace walker
//! skips them and the shipped tree stays lint-clean.

use std::collections::BTreeMap;

use clio_lint::rules::{
    env_config, one_log_reader, one_map_reader, raw_atomics, raw_locks, registry_deps,
    unsafe_only_in, unwrap_ratchet, wallclock, worm_writes,
};
use clio_lint::{Diag, SourceFile};

fn lint(rel: &str, src: &str, rule: impl Fn(&SourceFile, &mut Vec<Diag>)) -> Vec<Diag> {
    let sf = SourceFile::parse(rel, src);
    let mut out = Vec::new();
    rule(&sf, &mut out);
    out
}

#[test]
fn registry_deps_flags_every_retired_crate() {
    let diags = lint(
        "crates/x/src/lib.rs",
        include_str!("fixtures/registry_deps/bad.rs"),
        registry_deps::check,
    );
    let names: Vec<&str> = diags.iter().map(|d| d.msg.as_str()).collect();
    assert_eq!(diags.len(), 5, "{names:?}");
    for needle in [
        "parking_lot",
        "crossbeam_channel",
        "proptest",
        "criterion",
        "rand",
    ] {
        assert!(
            names.iter().any(|m| m.contains(needle)),
            "missing {needle} in {names:?}"
        );
    }
    assert!(diags
        .iter()
        .all(|d| d.line > 0 && d.rule == "no-registry-deps"));
}

#[test]
fn registry_deps_ignores_comments_strings_and_locals() {
    let diags = lint(
        "crates/x/src/lib.rs",
        include_str!("fixtures/registry_deps/clean.rs"),
        registry_deps::check,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn registry_deps_catches_manifest_lines_but_not_comments() {
    let bad = "[dependencies]\nparking_lot = \"0.12\"\n\
               crossbeam-utils = { version = \"0.8\" }\nrand = \"0.8\"\n\
               # criterion = \"0.5\" is only a comment\n";
    let mut diags = Vec::new();
    registry_deps::check_toml("crates/x/Cargo.toml", bad, &mut diags);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert_eq!(diags[0].line, 2);
    assert!(diags[1].msg.contains("crossbeam-utils"));

    // A rename can smuggle a dep inside a string — strings are checked.
    let mut renamed = Vec::new();
    registry_deps::check_toml(
        "crates/x/Cargo.toml",
        "quick = { package = \"proptest\", version = \"1\" }\n",
        &mut renamed,
    );
    assert_eq!(renamed.len(), 1, "{renamed:?}");

    let mut clean = Vec::new();
    registry_deps::check_toml(
        "crates/x/Cargo.toml",
        "clio-testkit.workspace = true\n[features]\nrandomized = []\n",
        &mut clean,
    );
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn raw_locks_flags_plain_and_grouped_imports() {
    let diags = lint(
        "crates/core/src/lib.rs",
        include_str!("fixtures/raw_locks/bad.rs"),
        raw_locks::check,
    );
    assert_eq!(diags.len(), 4, "{diags:?}");
    let mut hit: Vec<&str> = diags
        .iter()
        .map(|d| {
            ["Mutex", "RwLock", "Condvar"]
                .into_iter()
                .find(|b| d.msg.contains(&format!("std::sync::{b}")))
                .unwrap_or("?")
        })
        .collect();
    hit.sort_unstable();
    assert_eq!(hit, vec!["Condvar", "Mutex", "Mutex", "RwLock"]);
}

#[test]
fn raw_locks_allows_testkit_and_nonblocking_std_sync() {
    let src = include_str!("fixtures/raw_locks/clean.rs");
    assert!(lint("crates/core/src/lib.rs", src, raw_locks::check).is_empty());
    // The instrumented wrappers themselves are the one allowed home.
    let bad = include_str!("fixtures/raw_locks/bad.rs");
    assert!(lint("crates/testkit/src/sync.rs", bad, raw_locks::check).is_empty());
}

#[test]
fn wallclock_flags_clock_reads_outside_approved_modules() {
    let bad = include_str!("fixtures/wallclock/bad.rs");
    let diags = lint("crates/core/src/service.rs", bad, wallclock::check);
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().any(|d| d.msg.contains("SystemTime::now")));
    assert!(diags.iter().any(|d| d.msg.contains("Instant::now")));
    assert!(diags.iter().any(|d| d.msg.contains("thread::sleep")));
    // The same source is fine where measuring wall time is the point.
    assert!(lint("crates/bench/src/bin/x.rs", bad, wallclock::check).is_empty());
    // In clio-obs, only the clock module itself: the recorder and the
    // histograms take readings from it like everyone else.
    assert!(lint("crates/obs/src/clock.rs", bad, wallclock::check).is_empty());
    let diags = lint("crates/obs/src/trace.rs", bad, wallclock::check);
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags
        .iter()
        .any(|d| d.msg.contains("clio_obs::clock::read()")));
    assert!(diags
        .iter()
        .any(|d| d.msg.contains("clio_obs::clock::hold")));
    // The modules approved to read the host clock may still not sleep.
    for rel in ["crates/testkit/src/bench.rs", "crates/types/src/time.rs"] {
        let diags = lint(rel, bad, wallclock::check);
        assert_eq!(diags.len(), 1, "{rel}: {diags:?}");
        assert!(diags[0].msg.contains("thread::sleep"), "{rel}: {diags:?}");
    }
    // The modelled-time crate is NOT exempt: virtual time must come from
    // seeded state, never the host clock, or seed replay silently breaks.
    assert_eq!(
        lint("crates/costmodel/src/latency.rs", bad, wallclock::check).len(),
        4,
        "crates/costmodel must be held to the no-wallclock rule"
    );
    assert_eq!(
        lint("crates/costmodel/src/sched.rs", bad, wallclock::check).len(),
        4,
        "the virtual-time scheduler must be held to the no-wallclock rule"
    );
}

#[test]
fn wallclock_allows_the_sanctioned_funnels() {
    let diags = lint(
        "crates/core/src/read.rs",
        include_str!("fixtures/wallclock/clean.rs"),
        wallclock::check,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn env_config_flags_environment_reads_in_library_code() {
    let bad = include_str!("fixtures/env_config/bad.rs");
    let diags = lint("crates/core/src/config.rs", bad, env_config::check);
    assert_eq!(diags.len(), 3, "{diags:?}");
    for needle in ["env::var`", "env::var_os`", "env::vars`"] {
        assert!(
            diags.iter().any(|d| d.msg.contains(needle)),
            "missing {needle} in {diags:?}"
        );
    }
    assert!(diags
        .iter()
        .all(|d| d.line > 0 && d.rule == "no-env-config"));
    // The root package's library is held to it too...
    assert_eq!(lint("src/lib.rs", bad, env_config::check).len(), 3);
    // ...but tooling, benchmark drivers, binaries and tests are where a
    // seed or a switch legitimately enters.
    for home in [
        "crates/testkit/src/prop.rs",
        "crates/bench/src/bin/x.rs",
        "crates/lint/src/main.rs",
        "src/bin/cliodump.rs",
        "crates/core/tests/simulation.rs",
        "tests/end_to_end.rs",
    ] {
        assert!(lint(home, bad, env_config::check).is_empty(), "{home}");
    }
}

#[test]
fn env_config_allows_args_prose_and_test_modules() {
    let diags = lint(
        "crates/core/src/config.rs",
        include_str!("fixtures/env_config/clean.rs"),
        env_config::check,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn one_log_reader_flags_block_parsing_and_sources_outside_read_rs() {
    let bad = include_str!("fixtures/one_log_reader/bad.rs");
    let diags = lint("crates/core/src/recovery.rs", bad, one_log_reader::check);
    assert_eq!(diags.len(), 4, "{diags:?}");
    for (needle, want) in [
        ("`impl BlockSource`", 2),
        ("`BlockView::parse`", 1),
        ("`ParsedBlock::parse`", 1),
    ] {
        let got = diags.iter().filter(|d| d.msg.contains(needle)).count();
        assert_eq!(got, want, "{needle} in {diags:?}");
    }
    assert!(diags
        .iter()
        .all(|d| d.line > 0 && d.rule == "one-log-reader"));
    // The reader itself is the one home; so is `BlockSource`'s provided
    // check, and anything outside clio-core and clio-entrymap (cliodump,
    // the experiment harness).
    for home in [
        "crates/core/src/read.rs",
        "crates/entrymap/src/source.rs",
        "crates/core/tests/service_tests.rs",
        "src/bin/cliodump.rs",
    ] {
        assert!(lint(home, bad, one_log_reader::check).is_empty(), "{home}");
    }
}

#[test]
fn one_log_reader_flags_entrymap_searches_that_check_blocks_themselves() {
    let search = include_str!("fixtures/one_log_reader/search.rs");
    for scope in [
        "crates/entrymap/src/locate.rs",
        "crates/entrymap/src/naive.rs",
    ] {
        let diags = lint(scope, search, one_log_reader::check);
        // The two parses; not `verified`, not an `impl BlockSource` (a
        // source is where a block's check belongs), not the test module.
        let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![6, 13], "{scope}: {diags:?}");
        assert!(diags
            .iter()
            .all(|d| d.rule == "one-log-reader" && d.msg.contains("BlockSource::verified")));
    }
    assert!(lint(
        "crates/entrymap/src/source.rs",
        search,
        one_log_reader::check
    )
    .is_empty());
}

#[test]
fn one_log_reader_allows_generic_bounds_prose_and_test_modules() {
    let diags = lint(
        "crates/core/src/recovery.rs",
        include_str!("fixtures/one_log_reader/clean.rs"),
        one_log_reader::check,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn one_map_reader_flags_record_decoding_outside_the_chain_reader() {
    let bad = include_str!("fixtures/one_map_reader/bad.rs");
    for scope in ["crates/entrymap/src/rebuild.rs", "crates/core/src/read.rs"] {
        let diags = lint(scope, bad, one_map_reader::check);
        assert_eq!(diags.len(), 2, "{scope}: {diags:?}");
        for needle in ["`EntrymapRecord::decode`", "`EntrymapRecordView::parse`"] {
            let got = diags.iter().filter(|d| d.msg.contains(needle)).count();
            assert_eq!(got, 1, "{needle} in {diags:?}");
        }
        assert!(diags
            .iter()
            .all(|d| d.line > 0 && d.rule == "one-map-reader"));
    }
    // The chain reader is the one home; the format crate (where `decode`
    // *is* `parse` + collect), tests, cliodump and the harness are out of
    // scope.
    for home in [
        "crates/entrymap/src/chain.rs",
        "crates/format/src/entrymap_rec.rs",
        "crates/entrymap/tests/entrymap_properties.rs",
        "src/bin/cliodump.rs",
        "crates/bench/src/bin/sec35_space.rs",
    ] {
        assert!(lint(home, bad, one_map_reader::check).is_empty(), "{home}");
    }
}

#[test]
fn one_map_reader_allows_prose_encoding_and_test_modules() {
    let diags = lint(
        "crates/entrymap/src/locate.rs",
        include_str!("fixtures/one_map_reader/clean.rs"),
        one_map_reader::check,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn worm_writes_confines_raw_file_primitives_to_the_medium() {
    let bad = include_str!("fixtures/worm_writes/bad.rs");
    let diags = lint("crates/device/src/worm.rs", bad, worm_writes::check);
    assert_eq!(diags.len(), 8, "{diags:?}");
    for needle in [
        "OpenOptions",
        "SeekFrom",
        "`seek`",
        "set_len",
        "File::create",
        "fs::write",
    ] {
        assert!(
            diags.iter().any(|d| d.msg.contains(needle)),
            "missing {needle} in {diags:?}"
        );
    }
    // The audited surface itself may use the primitives...
    assert!(lint("crates/device/src/medium.rs", bad, worm_writes::check).is_empty());
    // ...but the rewriteable store built over it is device code like any
    // other.
    assert_eq!(
        lint("crates/device/src/store.rs", bad, worm_writes::check).len(),
        8
    );
    // ...and so may code outside the device layer entirely.
    assert!(lint("crates/fs/src/fs.rs", bad, worm_writes::check).is_empty());
}

#[test]
fn worm_writes_exempts_test_modules_and_clean_code() {
    let bad = include_str!("fixtures/worm_writes/bad.rs");
    let diags = lint("crates/device/src/worm.rs", bad, worm_writes::check);
    // The #[cfg(test)] fs::write at the bottom contributes nothing: all 8
    // findings sit above the test module.
    let max_line = diags.iter().map(|d| d.line).max().unwrap_or(0);
    assert!(max_line <= 11, "test-module write was flagged: {diags:?}");
    let clean = include_str!("fixtures/worm_writes/clean.rs");
    assert!(lint("crates/device/src/mirror.rs", clean, worm_writes::check).is_empty());
}

#[test]
fn unwrap_ratchet_counts_only_undocumented_library_calls() {
    let sf = SourceFile::parse(
        "crates/x/src/lib.rs",
        include_str!("fixtures/unwrap_ratchet/counted.rs"),
    );
    assert_eq!(unwrap_ratchet::count_file(&sf), 2);
}

#[test]
fn unwrap_ratchet_scopes_to_library_code() {
    assert_eq!(
        unwrap_ratchet::crate_key("crates/device/src/file.rs").as_deref(),
        Some("device")
    );
    assert_eq!(
        unwrap_ratchet::crate_key("src/bin/cliodump.rs").as_deref(),
        Some("clio")
    );
    assert_eq!(unwrap_ratchet::crate_key("crates/device/tests/t.rs"), None);
    assert_eq!(unwrap_ratchet::crate_key("tests/end_to_end.rs"), None);
    assert_eq!(unwrap_ratchet::crate_key("examples/demo.rs"), None);
}

#[test]
fn unwrap_ratchet_compare_reports_all_four_drifts() {
    let counts: BTreeMap<String, u64> = [
        ("up".to_string(), 3u64),
        ("down".to_string(), 1),
        ("new".to_string(), 0),
    ]
    .into_iter()
    .collect();
    let baseline = "[unwrap]\nup = 2\ndown = 4\ngone = 1\n";
    let mut diags = Vec::new();
    unwrap_ratchet::compare(&counts, baseline, &mut diags);
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().any(|d| d.msg.contains("regressed: 2 -> 3")));
    assert!(diags.iter().any(|d| d.msg.contains("improved to 1")));
    assert!(diags
        .iter()
        .any(|d| d.msg.contains("`new` has no [unwrap] baseline")));
    assert!(diags
        .iter()
        .any(|d| d.msg.contains("stale baseline entry `gone`")));
    // Exact match is silent.
    let mut ok = Vec::new();
    unwrap_ratchet::compare(&counts, "[unwrap]\nup = 3\ndown = 1\nnew = 0\n", &mut ok);
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn raw_atomics_flags_every_way_in() {
    let bad = include_str!("fixtures/raw_atomics/bad.rs");
    let diags = lint("crates/core/src/lib.rs", bad, raw_atomics::check);
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![5, 6, 7, 11], "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "no-raw-std-atomics"));
    assert_eq!(
        lint("src/bin/cliodump.rs", bad, raw_atomics::check).len(),
        4
    );
}

#[test]
fn raw_atomics_allows_the_wrappers_and_nonlibrary_code() {
    let clean = include_str!("fixtures/raw_atomics/clean.rs");
    assert!(lint("crates/core/src/lib.rs", clean, raw_atomics::check).is_empty());
    let bad = include_str!("fixtures/raw_atomics/bad.rs");
    for home in [
        "crates/testkit/src/sync/atomic.rs",
        "crates/types/src/time.rs",
        "crates/device/tests/t.rs",
        "tests/concurrency.rs",
    ] {
        assert!(lint(home, bad, raw_atomics::check).is_empty(), "{home}");
    }
}

/// The shipped tree is lint-clean and matches its committed ratchet —
/// the same invariant CI enforces, checked here so `cargo test` alone
/// catches a violation.
#[test]
fn shipped_tree_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let ws = clio_lint::load_workspace(&root).expect("workspace loads");
    let report = clio_lint::check_workspace(&ws);
    let mut diags = report.diags;
    let baseline = std::fs::read_to_string(root.join(unwrap_ratchet::RATCHET_REL))
        .expect("lint/ratchet.toml is committed");
    unwrap_ratchet::compare(&report.unwrap_counts, &baseline, &mut diags);
    assert!(
        diags.is_empty(),
        "tree has lint violations:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.rust_files > 100, "walker missed most of the tree");
}

#[test]
fn unsafe_only_in_allows_only_the_named_functions() {
    let bad = include_str!("fixtures/unsafe_only_in/bad.rs");
    let lines = |rel: &str| -> Vec<u32> {
        let diags = lint(rel, bad, unsafe_only_in::check);
        assert!(
            diags.iter().all(|d| d.rule == "unsafe-only-in"),
            "{diags:?}"
        );
        diags.iter().map(|d| d.line).collect()
    };
    // In the file that owns `fold`: the unsafe fn, impl and trait, the
    // block in `not_fold` and the one in the test module; nothing inside
    // `fold` (its nested `unsafe fn` and the block that calls it).
    assert_eq!(lines("crates/types/src/crc.rs"), vec![5, 10, 11, 23, 29]);
    // The same function anywhere else is not on the list.
    assert_eq!(lines("crates/core/src/read.rs").len(), 7);
    assert_eq!(lines("crates/types/src/lib.rs").len(), 7);
    // Outside crates/*/src the rule does not look.
    assert!(lines("crates/types/tests/crc.rs").is_empty());
    assert!(lines("perf/src/alloc.rs").is_empty());
}

#[test]
fn unsafe_only_in_ignores_comments_strings_and_longer_identifiers() {
    let diags = lint(
        "crates/core/src/read.rs",
        include_str!("fixtures/unsafe_only_in/clean.rs"),
        unsafe_only_in::check,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unsafe_only_in_lists_each_function_with_its_reason() {
    for (file, name, reason) in unsafe_only_in::ALLOWED {
        assert!(
            file.starts_with("crates/") && file.contains("/src/"),
            "{file}"
        );
        assert!(!name.is_empty() && reason.len() > 40, "{file}::{name}");
    }
}
