//! The `conc_read` harness, [`clio_bench::harness::conc_read`]: its text on
//! stdout; `--json` also writes `BENCH_conc_read.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::conc_read::run)
}
