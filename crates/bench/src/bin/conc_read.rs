//! The `conc_read` harness, [`clio_bench::harness::conc_read`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::conc_read::run)
}
