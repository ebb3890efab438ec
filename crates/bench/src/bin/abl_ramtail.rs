//! The `abl_ramtail` harness, [`clio_bench::harness::abl_ramtail`]: its text on
//! stdout; `--json` also writes `BENCH_abl_ramtail.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::abl_ramtail::run)
}
