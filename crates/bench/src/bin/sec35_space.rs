//! The `sec35_space` harness, [`clio_bench::harness::sec35_space`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::sec35_space::run)
}
