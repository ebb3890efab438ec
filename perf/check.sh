#!/bin/sh
# Do two sets of runs of the same code agree within the benchmark's own
# bounds?  Builds offline, runs every workload twice at one seed (default 1),
# and compares the two sets in both directions. Exits non-zero if any
# metric is a regression or unresolved either way.
#
#   perf/check.sh [seed]
set -eu
cd "$(dirname "$0")/.."
seed="${1:-1}"
perf() {
    cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- "$@"
}
cargo build --release --offline --manifest-path perf/Cargo.toml
perf run --seed "$seed" --out "perf/out/check_a_seed$seed.json"
perf run --seed "$seed" --out "perf/out/check_b_seed$seed.json"
perf compare "perf/out/check_a_seed$seed.json" "perf/out/check_b_seed$seed.json"
perf compare "perf/out/check_b_seed$seed.json" "perf/out/check_a_seed$seed.json"
