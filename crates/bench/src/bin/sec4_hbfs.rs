//! The `sec4_hbfs` harness, [`clio_bench::harness::sec4_hbfs`]: its text on
//! stdout; `--json` also writes `BENCH_sec4_hbfs.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::sec4_hbfs::run)
}
