//! The `sec33_cold` harness, [`clio_bench::harness::sec33_cold`]: its text on
//! stdout; `--json` also writes `BENCH_sec33_cold.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::sec33_cold::run)
}
