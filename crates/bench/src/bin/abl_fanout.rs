//! The `abl_fanout` harness, [`clio_bench::harness::abl_fanout`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::abl_fanout::run)
}
