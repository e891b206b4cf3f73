#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): offline release build + full test
# suite, then optionally regenerate the performance-harness JSON.
#
#   scripts/tier1.sh           # build + test (offline)
#   scripts/tier1.sh --bench   # also refresh BENCH_pipeline.json
set -euo pipefail
cd "$(dirname "$0")/.."

# The container has no registry access; everything must resolve from the
# workspace itself.
export CARGO_NET_OFFLINE=true

cargo build --release
cargo build --release --examples
cargo test -q --workspace

# The paper's LU end to end through the planner's fold: the values check
# against the sequential interpreter at N = 24 and the Figure 14 series on
# P = 1..32 at two sizes (six grids each).
cargo run --release --example lu -- 96 192

# No parked tests: an `#[ignore]`d test is a known failure nobody has to
# look at. Fix it, or assert the refusal it should be.
if grep -rn '#\[ignore' crates tests; then
    echo "tier-1: the tests above are #[ignore]d" >&2
    exit 1
fi

# Lint gates: the workspace (every target, examples and benches included)
# must be clippy-clean at -D warnings and rustfmt-clean.
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Doc gate: a dangling or private intra-doc link is a failure. `--lib`
# because the `dmc-store` library and the binary of that name in
# crates/bench would otherwise both write `dmc_store/index.html`.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

# Observability smoke: trace the stencil workload and validate the Chrome
# export (well-formed JSON, balanced begin/end pairs, monotonic per-lane
# timestamps) plus full message attribution in the explain report.
cargo run --release -p dmc-bench --bin dmc-trace -- \
    --workload stencil --out-dir target/trace-tier1 --check

# Work-ledger profiler: profile all four registry workloads and
# self-validate the ledger (totals reconcile exactly with the engine's
# PolyStats counters — every cache's hits and misses, the scan and lexopt
# maps' charged replays included — >= 90% of work units carry an
# attribution context, and a second capture collapses to a byte-identical
# flamegraph). lu is the workload that spills past the inline constraint
# buffer, so it also exercises the heap-allocation accounting.
cargo run --release -p dmc-bench --bin dmc-profile -- \
    --workload all --out-dir target/profile-tier1 --check

# Critical-path & blame analysis on all four workloads: build the event
# DAG from the machine loop's steps and assert every invariant (makespan
# == longest path == the simulator's run time, blame agrees with the
# simulator's compute/comm/idle, zero slack iff critical, blame tiles the
# makespan per processor, incremental what-ifs match brute force).
cargo run --release -p dmc-bench --bin dmc-critpath -- \
    --workload all --out-dir target/critpath-tier1 --check

# Stage-graph sessions: sweep every workload over four processor counts
# inside one compilation session and verify that the cached artifacts are
# identical to the one-shot pipeline's, that no Last Write Tree is built
# twice, that recompiling an identical input re-runs nothing, and that
# the explain report carries the Reuse section.
cargo run --release -p dmc-bench --bin dmc-session -- \
    --out-dir target/session-tier1 --check

# Persistent artifact store: cold/warm byte identity over all four
# workloads (a fresh process serves everything from disk, recomputes
# nothing and loads exactly what the cold pass wrote), eight more warm
# sweeps each adding one index-log line per disk hit (the count-based
# guard that a load costs O(1), not O(entries)), deterministic LRU
# eviction under a tiny byte bound, and corruption-as-miss (every
# bit-flipped artifact is quarantined and recomputed, never trusted).
cargo run --release -p dmc-bench --bin dmc-store -- \
    --check --cache-dir target/dmc-store-tier1

# Warm start across processes: a second dmc-session process against the
# same cache directory must serve its stage lookups from disk and stay
# identical to the one-shot pipeline (--check asserts both).
store_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir"' EXIT
cargo run --release -p dmc-bench --bin dmc-session -- \
    --out-dir target/session-tier1-cold --cache-dir "$store_dir" --check
cargo run --release -p dmc-bench --bin dmc-session -- \
    --out-dir target/session-tier1-warm --cache-dir "$store_dir" --check

# Compile journal: serve the four benchmark workloads through one
# journaling session, write the JSONL journal, and verify it round-trips
# through disk, self-diffs clean, and replays byte-identically (every
# deterministic field) through a fresh session.
cargo run --release -p dmc-bench --bin dmc-journal -- \
    --check --out-dir target/journal-tier1

# Snapshot gate: re-measure the pipeline (one cold run per workload plus
# the warm rerun its identity flag compares against) and compare it with
# the committed BENCH_pipeline.json. Every field is deterministic, so
# every field must match exactly; a moved field is printed as
# `path: old -> new` and fails the script. Wall-clock lives in benchmark/.
cargo run --release -p dmc-bench --bin perfstats -- --check

# Repo benchmark smoke: benchmark/ is its own package, so the workspace
# build above never compiles it and a removed `pub` item could break the
# gated benchmark unnoticed. Build it, run every workload at its smoke
# size (each must exit 0), and check that an injected fault still fails.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for workload in lu_plan symbolic_corpus store_cold store_warm verify_values; do
    bash benchmark/run.sh --workload "$workload" --small --seed 1 --trace 0
done
# One traced run: its ledger pass bumps the memo epoch, the one place the
# engine's memo stores are wiped and refilled mid-process while the
# span-tiling check is on.
bash benchmark/run.sh --workload symbolic_corpus --small --seed 1 --trace 1
# And one with values mode inside the traced, the obs-capture and the
# ledger pass: the simulator's local memories under the same tiling check.
bash benchmark/run.sh --workload verify_values --small --seed 1 --trace 1
# And the planner's own: the probe phase calls aggregate_messages and
# is_multicast directly on every final communication set, and the ledger
# pass re-plans LU under the span-tiling check.
bash benchmark/run.sh --workload lu_plan --small --seed 1 --trace 1
# A fault must still fail: a corrupted store entry, and an interpreter
# result one element off the simulator's merged memory.
for workload in store_warm verify_values; do
    if bash benchmark/run.sh --workload "$workload" --small --inject-fault >/dev/null 2>&1; then
        echo "benchmark: $workload --inject-fault must exit non-zero" >&2
        exit 1
    fi
done

# Flamegraph wrapper smoke: the stencil profile must leave a non-empty
# collapsed-stack file (the script exits nonzero otherwise).
scripts/flamegraph.sh stencil

if [[ "${1:-}" == "--bench" ]]; then
    cargo run --release -p dmc-bench --bin perfstats
fi

echo "tier-1 OK"
