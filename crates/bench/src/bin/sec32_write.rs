//! The `sec32_write` harness, [`clio_bench::harness::sec32_write`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::sec32_write::run)
}
