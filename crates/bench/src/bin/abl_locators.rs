//! The `abl_locators` harness, [`clio_bench::harness::abl_locators`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::abl_locators::run)
}
