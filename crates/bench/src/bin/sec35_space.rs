//! The `sec35_space` harness, [`clio_bench::harness::sec35_space`]: its text on
//! stdout; `--json` also writes `BENCH_sec35_space.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::sec35_space::run)
}
