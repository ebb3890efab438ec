//! The `table1_read` harness, [`clio_bench::harness::table1_read`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::table1_read::run)
}
