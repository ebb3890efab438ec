//! The `sec32_write` harness, [`clio_bench::harness::sec32_write`]: its text on
//! stdout; `--json` also writes `BENCH_sec32_write.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::sec32_write::run)
}
