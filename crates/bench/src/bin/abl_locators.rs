//! The `abl_locators` harness, [`clio_bench::harness::abl_locators`]: its text on
//! stdout; `--json` also writes `BENCH_abl_locators.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::abl_locators::run)
}
