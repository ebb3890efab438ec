//! The `abl_ramtail` harness, [`clio_bench::harness::abl_ramtail`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::abl_ramtail::run)
}
