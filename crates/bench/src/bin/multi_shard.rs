//! The `multi_shard` harness, [`clio_bench::harness::multi_shard`]: its text on stdout.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::multi_shard::run)
}
