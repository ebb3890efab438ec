//! The `obs_http` harness, [`clio_bench::harness::obs_http`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::obs_http::run)
}
