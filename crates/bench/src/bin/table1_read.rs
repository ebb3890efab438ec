//! The `table1_read` harness, [`clio_bench::harness::table1_read`]: its text on
//! stdout; `--json` also writes `BENCH_table1_read.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::table1_read::run)
}
