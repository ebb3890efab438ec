//! `clio-perf`: the Clio benchmark. See `perf/README.md`.
//!
//! ```text
//! clio-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! clio-perf run   [--seed n] [--seconds s] [--out file]                every workload, untraced
//! clio-perf trace [--seed n] [--seconds s] [--out file]                every workload, traced
//! clio-perf compare a.json b.json [--bench BENCHMARK.json]             do two sets agree?
//! clio-perf known-failure [--seed n]                                   the baseline's known read failure
//! ```

mod alloc;
mod compare;
mod device;
mod gen;
mod json;
mod probes;
mod rng;
mod run;
mod scenario;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use gen::{Sizing, Workload};
use json::Json;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `--seconds` when a person runs `run` or `trace` without saying; equal
/// to `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;

/// Where result files and span files go: `perf/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> String {
    "usage:\n  clio-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--detail <file>]\n  \
     clio-perf run|trace [--seed <n>] [--seconds <s>] [--out <file>]\n  \
     clio-perf compare <a.json> <b.json> [--bench <BENCHMARK.json>]\n  \
     clio-perf known-failure [--seed <n>]\n\
     workloads: audit_buffered txn_forced multilog_sparse tail_mixed"
        .to_string()
}

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut words = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => words.push(a.clone()),
            }
        }
        Ok(Args { flags, words })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(name), default) {
            (Some(v), _) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("--{name} is required")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

/// Settings that would change what is measured are taken out of the
/// environment before any service exists (and before any thread does).
fn scrub_environment() {
    let doomed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            matches!(
                k.as_str(),
                "CLIO_GROUP_COMMIT" | "CLIO_LOCKDEP" | "CLIO_MODEL_CHECK"
            ) || k.starts_with("CLIO_BENCH_")
        })
        .collect();
    for k in doomed {
        std::env::remove_var(k);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv, started) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("clio-perf: {msg}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(argv: &[String], started: Instant) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err(
            "this is a debug build; the benchmark measures optimized builds only \
                    (cargo run --release --offline --manifest-path perf/Cargo.toml -- …)"
                .into(),
        );
    }
    scrub_environment();
    let args = Args::parse(argv)?;
    match args.words.first().map(String::as_str) {
        None if args.get("workload").is_some() => one_workload(&args, started),
        Some(mode @ ("run" | "trace")) if args.words.len() == 1 => all_workloads(&args, mode),
        Some("compare") if args.words.len() == 3 => compare_sets(&args),
        Some("known-failure") if args.words.len() == 1 => known_failure(&args),
        _ => Err(usage()),
    }
}

/// The driver's entry point: one workload, one result line.
fn one_workload(args: &Args, started: Instant) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "trace", "detail"])?;
    let name = args.get("workload").unwrap_or_default();
    let workload =
        Workload::parse(name).ok_or(format!("unknown workload {name:?}\n{}", usage()))?;
    let seed: u64 = args.num("seed", None)?;
    let seconds: f64 = args.num("seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds: {seconds} is outside (0, 600]"));
    }
    let traced = match args.get("trace") {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if nproc() < workload.client_threads() {
        return Err(format!(
            "{} core(s) available; {name} runs {} client threads and the benchmark never \
             oversubscribes",
            nproc(),
            workload.client_threads()
        ));
    }
    let outcome = if traced {
        run::run_traced(workload, seed, seconds, started, &out_dir())?
    } else {
        run::run_untraced(workload, seed, seconds, started)?
    };
    outcome.print();
    if let Some(path) = args.get("detail") {
        write_file(Path::new(path), &outcome.detail().encode())?;
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// First line of a command's output, or "unknown".
fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `run` / `trace`: every workload, each in a process of its own (so peak
/// memory and set-up time are per workload), then one result file.
fn all_workloads(args: &Args, mode: &str) -> Result<ExitCode, String> {
    args.only(&["seed", "seconds", "out"])?;
    let seed: u64 = args.num("seed", Some(1))?;
    let seconds: f64 = args.num("seconds", Some(DEFAULT_SECONDS))?;
    let traced = mode == "trace";
    let out = args.get("out").map_or_else(
        || out_dir().join(format!("{mode}_seed{seed}.json")),
        PathBuf::from,
    );
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let detail = out_dir().join(format!("{mode}_{}.detail.json", w.name()));
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--detail")
            .arg(&detail)
            .status()
            .map_err(|e| format!("starting {}: {e}", w.name()))?;
        if !status.success() {
            return Err(format!("{} exited with {status}", w.name()));
        }
        let d = read_json(&detail)?;
        all_correct &= d.get("correct") == Some(&Json::Bool(true));
        workloads.push((w.name(), d));
    }
    let meta = Json::obj([
        ("mode", Json::str(mode)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(tool_version("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        (
            "service_config",
            Json::str(format!("{:?}", scenario::service_config(512))),
        ),
        (
            "device",
            Json::str("MemWormDevice behind TimedDevice; no fsync; ManualClock"),
        ),
    ]);
    println!("meta: {}", meta.encode());
    let doc = Json::obj([("meta", meta), ("workloads", Json::obj(workloads))]);
    write_file(&out, &doc.encode())?;
    println!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_sets(args: &Args) -> Result<ExitCode, String> {
    args.only(&["bench"])?;
    let bench = args.get("bench").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        PathBuf::from,
    );
    let bench = read_json(&bench)?;
    let a = read_json(Path::new(&args.words[1]))?;
    let b = read_json(Path::new(&args.words[2]))?;
    let (lines, agree) = compare::compare(&bench, &a, &b)?;
    for l in lines {
        println!("{l}");
    }
    println!(
        "{}",
        if agree {
            "the two sets agree within the benchmark's bounds"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Reproduces the read failure the unmodified tree has at the sizing
/// ISSUE 12 probed: one repetition of `multilog_sparse` with 400 000
/// appends on 16 384-block volumes. See "Known baseline failures" in
/// `perf/README.md`.
fn known_failure(args: &Args) -> Result<ExitCode, String> {
    args.only(&["seed"])?;
    let seed: u64 = args.num("seed", Some(1))?;
    let w = Workload::MultilogSparse;
    let sizing = Sizing::KNOWN_FAILURE;
    let rep = scenario::run_rep(
        w,
        seed,
        sizing,
        scenario::RepOptions {
            traced: false,
            trace_events: 512,
            append_only: false,
        },
    )
    .map_err(|e| e.to_string())?;
    println!(
        "{} at issue scale ({} appends, {}-block volumes), seed {seed}:",
        w.name(),
        sizing.appends_per_client,
        sizing.volume_blocks
    );
    println!(
        "  read-back: ops_attempted={} ops_failed={} read_mismatch={} lost_acked={}",
        rep.read.attempted, rep.read.failed, rep.read.mismatches, rep.lost_acked
    );
    for e in &rep.errors.0 {
        println!("  error: {e}");
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_words_parse() {
        let a = Args::parse(&strings(&[
            "compare", "a.json", "--bench", "B.json", "b.json",
        ]))
        .unwrap();
        assert_eq!(a.words, ["compare", "a.json", "b.json"]);
        assert_eq!(a.get("bench"), Some("B.json"));
        assert!(a.only(&["bench"]).is_ok());
        assert!(a.only(&["seed"]).is_err());
        assert!(Args::parse(&strings(&["--seed"])).is_err());
        let a = Args::parse(&strings(&["--seed", "7", "--seconds", "x"])).unwrap();
        assert_eq!(a.num::<u64>("seed", None), Ok(7));
        assert!(a.num::<f64>("seconds", None).is_err());
        assert!(a.num::<u64>("trace", None).is_err());
        assert_eq!(a.num::<u64>("trace", Some(0)), Ok(0));
    }

    /// `BENCHMARK.json` and the tables in `run.rs` are written by hand in
    /// two places; this keeps them one benchmark.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let bench = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
        let names = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&run::END_TO_END));
        assert_eq!(names("per_layer"), table(&run::PER_LAYER));
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert!(compare::rules(&bench)
            .expect("rules")
            .iter()
            .all(|r| r.bound <= 0.25));
    }
}
