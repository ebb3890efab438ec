//! The `sec4_hbfs` harness, [`clio_bench::harness::sec4_hbfs`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::sec4_hbfs::run)
}
