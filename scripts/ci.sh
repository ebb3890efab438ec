#!/usr/bin/env bash
# Tier-1 gate. The workspace is std-only by policy (see DESIGN.md):
# everything must succeed offline, with no registry access at all.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast on any attempt to reach a registry: point cargo at an
# empty, read-only home so nothing can be fetched or cached.
export CARGO_NET_OFFLINE=true

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check

# No external dependencies: the tree must contain only workspace-path
# crates (all named clio*).
if cargo tree --offline --workspace --prefix none --no-dedupe \
        | awk 'NF {print $1}' | sort -u | grep -qv '^clio'; then
    echo "error: non-workspace dependency in cargo tree:" >&2
    cargo tree --offline --workspace --prefix none --no-dedupe \
        | awk 'NF {print $1}' | sort -u | grep -v '^clio' >&2
    exit 1
fi

# Workspace policy rules: retired registry deps, raw std locks and raw
# std atomics, host clock reads, environment reads in library code, the
# device-layer WORM write surface, the one log reader in clio-core, the
# one entrymap record reader (clio-entrymap's chain.rs), and the unwrap
# ratchet.
# clio-lint lexes real token streams, so comments and strings don't trip
# it the way they tripped the old grep.
run cargo run --release --offline -p clio-lint

run cargo build --release --offline --workspace
run cargo test -q --offline --workspace
run cargo test -q --offline --workspace -- --include-ignored

# The benchmark package is frozen between benchmark PRs and compiles
# against the product crates' public surface from outside the workspace:
# build it and run its self-tests here, so drift against that surface
# fails CI instead of failing the next benchmark run.
run cargo build --release --offline --manifest-path perf/Cargo.toml
run cargo test -q --offline --manifest-path perf/Cargo.toml

# Lock-order validation: the whole core suite again with lockdep
# recording every acquisition edge; any inversion or lock held across
# blocking device I/O panics with both acquisition sites.
echo "==> CLIO_LOCKDEP=1 cargo test -q --offline -p clio-core"
CLIO_LOCKDEP=1 cargo test -q --offline -p clio-core

# Clippy is part of the gate wherever the toolchain ships it.
if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping"
fi

# The concurrency stress tests race real threads; run them optimized so
# the schedules they exercise resemble production interleavings.
run cargo test -q --release --offline -p clio-core --test concurrent_reads
run cargo test -q --release --offline -p clio-core --test concurrent_appends

# Torn-batch crash recovery: the group-commit vectored write torn at
# every prefix length must recover to a consistent prefix. Run released
# so the full tear sweep stays fast.
run cargo test -q --release --offline -p clio-core --test recovery_torn_tail

# Deterministic whole-system simulation storm: the checked-in corpus of
# seeds that once failed (crates/core/tests/sim_seeds.txt) and then 25
# fresh seeds of multi-client virtual-time interleaving with seeded
# mid-run crashes — each seed run plain and with verified appends on
# garbling media — every history checked against the log model. A failing
# seed prints its replay line (CLIO_PROP_SEED=<n>); run released so the
# sweep stays fast. (The default 5-seed storm and single-seed smoke
# already ran in the workspace debug pass above.) The deep sweep is the
# same command with CLIO_SIM_SEEDS=1500 (seconds in release); its last
# result is recorded in EXPERIMENTS.md.
echo "==> CLIO_SIM_SEEDS=25 cargo test -q --release --offline -p clio-core --test simulation"
CLIO_SIM_SEEDS=25 cargo test -q --release --offline -p clio-core --test simulation

# Concurrency model checking: the six protocol models (commit gate,
# ArcCell publish, single-flight, sealed-queue drain, shared open block,
# trace-ring slot claim) plus the canary suite under the larger release budget (2,000 DFS + 2,000 random
# schedules per model). A failure prints both access sites and a
# CLIO_CHECK_REPLAY=<seed>:<index> line that re-runs the exact schedule.
# (The 1,000-schedule debug budget already ran in the workspace pass.)
echo "==> CLIO_MODEL_CHECK=1 cargo test -q --release --offline -p clio-core --test model_*"
CLIO_MODEL_CHECK=1 cargo test -q --release --offline -p clio-core \
    --test model_commit_gate --test model_arccell_publish \
    --test model_single_flight --test model_sealed_queue \
    --test model_open_block_publish --test model_canary
echo "==> CLIO_MODEL_CHECK=1 cargo test -q --release --offline -p clio-obs --test model_trace_ring"
CLIO_MODEL_CHECK=1 cargo test -q --release --offline -p clio-obs --test model_trace_ring

# The model checker's own scheduler is unsafe-free but relies on subtle
# std primitives; run its crate under miri wherever the toolchain ships
# it (like the clippy guard above — the release toolchain usually
# doesn't, nightlies do).
if cargo miri --version >/dev/null 2>&1; then
    echo "==> cargo miri test -q --offline -p clio-testkit"
    cargo miri test -q --offline -p clio-testkit
else
    echo "==> cargo miri not installed; skipping"
fi

# Golden paper outputs: the eleven harnesses whose text is a pure
# function of the tree must print exactly what is checked in, so "the
# paper-reproduction outputs are unchanged" is a gate, not a paragraph.
# (sec32_write prints two wall-clock lines and is left out.) After a
# deliberate change, re-bless one with:
#   ./target/release/<name> > crates/bench/golden/<name>.txt
for golden in crates/bench/golden/*.txt; do
    name=$(basename "$golden" .txt)
    echo "==> golden: $name"
    ./target/release/"$name" | diff -u "$golden" - || {
        echo "error: $name no longer prints crates/bench/golden/$name.txt" >&2
        exit 1
    }
done

# Smoke the machine-readable bench output: one harness with --json must
# emit a file the in-tree decoder accepts.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
run cargo build --release --offline -p clio-bench --bin fig2_tree
run cargo build --release --offline -p clio-obs --bin clio_json_check
(cd "$smoke_dir" && run "$OLDPWD"/target/release/fig2_tree --json > /dev/null)
[ -f "$smoke_dir/BENCH_fig2_tree.json" ] || {
    echo "error: fig2_tree --json did not write BENCH_fig2_tree.json" >&2
    exit 1
}
run ./target/release/clio_json_check "$smoke_dir/BENCH_fig2_tree.json"

# Smoke the concurrent-read scaling harness: a shrunk run must complete
# and emit valid JSON (scaling numbers themselves are host-dependent).
run cargo build --release --offline -p clio-bench --bin conc_read
(cd "$smoke_dir" && run "$OLDPWD"/target/release/conc_read --json --quick > /dev/null)
[ -f "$smoke_dir/BENCH_conc_read.json" ] || {
    echo "error: conc_read --json did not write BENCH_conc_read.json" >&2
    exit 1
}
run ./target/release/clio_json_check "$smoke_dir/BENCH_conc_read.json"

# Smoke the group-commit harness: a shrunk run must complete and emit
# valid JSON (its rounds are too short to say anything about coalescing).
run cargo build --release --offline -p clio-bench --bin group_commit
(cd "$smoke_dir" && run "$OLDPWD"/target/release/group_commit --json --quick > /dev/null)
[ -f "$smoke_dir/BENCH_group_commit.json" ] || {
    echo "error: group_commit --json did not write BENCH_group_commit.json" >&2
    exit 1
}
run ./target/release/clio_json_check "$smoke_dir/BENCH_group_commit.json"

# Smoke the multi-shard scaling harness, then guard the sharded path:
# two single-configuration runs (1 shard vs 4 shards) with one appender
# per core are diffed on the forced-append cost scalar with
# --direction=up. What that asserts: appenders that each have a core must
# not pay more per forced append when they are spread over independent
# domains than when they queue on one lock and one gate. It says nothing
# about how much cheaper — since group commit shares writes, one shard on
# a memory device is within reach of four — and nothing with more
# appenders than cores, where "more domains" only changes who waits for a
# core (8 threads on 2 cores read 24-61 us run to run). The rounds are
# full-length (a --quick round ends before the threads are placed) and
# still only tens of milliseconds, so one noisy pair is retried: the
# guard fails when the sharded path is dearer three times running.
run cargo build --release --offline -p clio-bench --bin multi_shard
run cargo build --release --offline -p clio-bench --bin bench_diff
(cd "$smoke_dir" && run "$OLDPWD"/target/release/multi_shard --json --quick > /dev/null)
[ -f "$smoke_dir/BENCH_multi_shard.json" ] || {
    echo "error: multi_shard --json did not write BENCH_multi_shard.json" >&2
    exit 1
}
run ./target/release/clio_json_check "$smoke_dir/BENCH_multi_shard.json"
if [ "$(nproc)" -gt 1 ]; then
    guard_held=0
    for attempt in 1 2 3; do
        (cd "$smoke_dir" && run "$OLDPWD"/target/release/multi_shard --shards=1 --logs="$(nproc)" --json > /dev/null)
        mv "$smoke_dir/BENCH_multi_shard.json" "$smoke_dir/BENCH_multi_shard.shards1.json"
        (cd "$smoke_dir" && run "$OLDPWD"/target/release/multi_shard --shards=4 --logs="$(nproc)" --json > /dev/null)
        if run ./target/release/bench_diff "$smoke_dir/BENCH_multi_shard.shards1.json" \
                "$smoke_dir/BENCH_multi_shard.json" --direction=up; then
            guard_held=1
            break
        fi
        echo "==> shards=1 vs shards=4 guard: attempt $attempt did not hold"
    done
    [ "$guard_held" = 1 ] || {
        echo "error: forced appends cost more over 4 shards than over 1, three times running" >&2
        exit 1
    }
else
    echo "==> single-core host; skipping the shards=1 vs shards=4 bench_diff gate"
fi

# Smoke the ops plane: the scrape-latency harness starts a real server
# with the HTTP endpoint on an ephemeral port and scrapes every route
# over a plain TcpStream (no curl), so this exercises bind, routing,
# Prometheus/JSON rendering and clean shutdown end to end.
run cargo build --release --offline -p clio-bench --bin obs_http
(cd "$smoke_dir" && run "$OLDPWD"/target/release/obs_http --json --quick > /dev/null)
[ -f "$smoke_dir/BENCH_obs_http.json" ] || {
    echo "error: obs_http --json did not write BENCH_obs_http.json" >&2
    exit 1
}
run ./target/release/clio_json_check "$smoke_dir/BENCH_obs_http.json"

# bench_diff must pass a report against itself (exit 0) and catch a
# doctored regression (exit 1).
run cargo build --release --offline -p clio-bench --bin bench_diff
run ./target/release/bench_diff "$smoke_dir/BENCH_obs_http.json" "$smoke_dir/BENCH_obs_http.json"
sed 's/"background_appends": \([0-9]*\)/"background_appends": 99999999/' \
    "$smoke_dir/BENCH_obs_http.json" > "$smoke_dir/BENCH_obs_http.doctored.json"
if ./target/release/bench_diff "$smoke_dir/BENCH_obs_http.json" \
        "$smoke_dir/BENCH_obs_http.doctored.json" > /dev/null; then
    echo "error: bench_diff missed a doctored regression" >&2
    exit 1
fi

echo "ci: all green"
