#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): offline release build + full test
# suite, then optionally regenerate the performance-harness JSON.
#
#   scripts/tier1.sh           # build + test (offline)
#   scripts/tier1.sh --bench   # also refresh BENCH_pipeline.json (dmc snapshot)
set -euo pipefail
cd "$(dirname "$0")/.."

# The container has no registry access; everything must resolve from the
# workspace itself.
export CARGO_NET_OFFLINE=true

cargo build --release
cargo build --release --examples
# The ROADMAP's tier-1 command, verbatim: the default members are every
# crate, so this is the whole suite.
cargo test -q
# The IR crate again in release: the release profile has no overflow
# checks, so this is where a silent `i128` wrap in the parser would show
# (the debug run above catches only a panic).
cargo test --release -q -p dmc-ir
# The machine crate in release for the same reason: the values-mode
# simulator's strips step slot numbers by strides, and its tests then run
# without overflow checks too.
cargo test --release -q -p dmc-machine
# The strips' oracle in release for the same reason: a carried read steps
# output and slot indices, which only the debug run checks for overflow.
cargo test --release -q -p dmc-core --test strips
# The planner's unit tests and the plan goldens in release for the same
# reason: each anchor is read into an `i64` key, and a conversion that
# wrapped there would order actions differently, which shows as a moved
# schedule fingerprint.
cargo test --release -q -p dmc-core --lib --test schedule_golden
# The store in release for the same reason: frame offsets and lengths
# read back from the index and the pack are checked arithmetic, which the
# release build would otherwise let wrap silently.
cargo test --release -q -p dmc-store
# The scan kernel's properties and the planner's fold parity in release for
# the same reason: a run's length and its two ends are `i64` arithmetic
# the kernel's range proof must cover, and only the debug run traps a
# hole in it; here a wrap would show as a wrong run against the oracles.
cargo test --release -q -p dmc-polyhedra --test properties
cargo test --release -q -p dmc-bench --test parity
# The artifact fuzz in release for the same reason: the canonical varint
# and row checks are width and shift arithmetic, which the debug run
# checks for overflow and the release build does not.
cargo test --release -q -p dmc-bench --test codec_fuzz

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

# The engine and the tracer are the two crates every other crate builds on.
for leaf in dmc-polyhedra dmc-obs; do
    deps=$(cargo tree --offline --locked -q -e normal --depth 1 -p "$leaf" | tail -n +2)
    if [[ -n "$deps" ]]; then
        echo "tier-1: $leaf must stay a leaf crate; it depends on:" >&2
        echo "$deps" >&2
        exit 1
    fi
done

# Doc gate: a dangling or private intra-doc link is a failure. `--lib`
# because the root `dmc` library and the `dmc` binary in crates/bench
# would otherwise both write `dmc/index.html`.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

# The three harness batteries, in one process (`dmc check`): `dmc explain
# --check` (one capture per workload: a well-formed Chrome trace with one
# `schedule` span, whose parsed provenance names every scheduled message
# with the schedule's sender, receivers and words; the ledger's charged
# work == the work_units delta, >= 90% of work attributed, a
# byte-identical recapture, recording that steers nothing; makespan ==
# longest path == simulator, exact blame, pruned what-ifs leave the
# makespan unchanged), `dmc store --check` (cold/warm byte identity, one
# index line per disk hit, eviction under a byte bound, corruption as a
# miss) and `dmc snapshot --check` (every field of the committed
# BENCH_pipeline.json reproduced exactly, the processor-count `sweep`
# section included; a moved field is printed as `path: old -> new`).
# Wall-clock lives in benchmark/.
cargo run --release -p dmc-bench --bin dmc -- check

# Figures regression: every figure series (Figure 14 aside) must print
# exactly the committed figures_output.txt; any diff means the pipeline's
# behavior moved.
./target/release/dmc figures | diff - figures_output.txt

# Repo benchmark smoke: benchmark/ is its own package, so the workspace
# build above never compiles it and a removed `pub` item could break the
# gated benchmark unnoticed. Build it, run every workload at its smoke
# size (each must exit 0), and check that an injected fault still fails.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for workload in lu_plan symbolic_corpus store_cold store_warm verify_values; do
    bash benchmark/run.sh --workload "$workload" --small --seed 1 --trace 0
done
# One traced run: the span-tiling check on, and a ledgered pass that
# records over the memo caches the earlier passes warmed.
bash benchmark/run.sh --workload symbolic_corpus --small --seed 1 --trace 1
# And one with values mode inside the traced, the obs-capture and the
# ledger pass: the simulator's local memories under the same tiling check.
bash benchmark/run.sh --workload verify_values --small --seed 1 --trace 1
# And the planner's own: the probe phase calls aggregate_messages and
# is_multicast directly on every final communication set, and the ledger
# pass re-plans LU under the span-tiling check.
bash benchmark/run.sh --workload lu_plan --small --seed 1 --trace 1
# And the store's: `Session::serve` over a populated DiskStore under the
# obs capture and the ledger, plus the memory-only recompute pass.
bash benchmark/run.sh --workload store_warm --small --seed 1 --trace 1
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
    cargo run --release -p dmc-bench --bin dmc -- snapshot
fi

# The library's size, per crate and in total, so each change's log shows
# what it added or removed, and where.
echo "non-test library lines per crate:"
scripts/loc.sh --crates | sed '$d'
echo "non-test library lines: $(scripts/loc.sh)"

echo "tier-1 OK"
