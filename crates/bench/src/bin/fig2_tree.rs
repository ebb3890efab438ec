//! The `fig2_tree` harness, [`clio_bench::harness::fig2_tree`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::fig2_tree::run)
}
