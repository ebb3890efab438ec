//! The `fig3_locate` harness, [`clio_bench::harness::fig3_locate`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::fig3_locate::run)
}
