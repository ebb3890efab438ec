//! The `mot_fs` harness, [`clio_bench::harness::mot_fs`]: its text on
//! stdout; `--json` also writes `BENCH_mot_fs.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::mot_fs::run)
}
