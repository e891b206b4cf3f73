#!/usr/bin/env bash
# The benchmark command of BENCHMARK.json: builds dmc-benchmark from source
# (a no-op after the first run) and runs it with the driver's arguments.
#   bash benchmark/run.sh --workload lu_plan --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/dmc-benchmark" --out-dir "$here/out" "$@"
