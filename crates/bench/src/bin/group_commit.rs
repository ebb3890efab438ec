//! The `group_commit` harness, [`clio_bench::harness::group_commit`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::group_commit::run)
}
