//! The `mot_fs` harness, [`clio_bench::harness::mot_fs`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::mot_fs::run)
}
