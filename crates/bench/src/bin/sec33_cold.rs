//! The `sec33_cold` harness, [`clio_bench::harness::sec33_cold`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::sec33_cold::run)
}
