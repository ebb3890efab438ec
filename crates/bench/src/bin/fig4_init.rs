//! The `fig4_init` harness, [`clio_bench::harness::fig4_init`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::fig4_init::run)
}
