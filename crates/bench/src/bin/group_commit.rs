//! The `group_commit` harness, [`clio_bench::harness::group_commit`]: its text on
//! stdout; `--json` also writes `BENCH_group_commit.json`.

fn main() -> std::io::Result<()> {
    clio_bench::harness::main(clio_bench::harness::group_commit::run)
}
