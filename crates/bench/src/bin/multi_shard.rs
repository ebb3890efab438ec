//! The `multi_shard` harness, [`clio_bench::harness::multi_shard`]: its text on
//! stdout; `--json` also writes `BENCH_multi_shard.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::multi_shard::run)
}
