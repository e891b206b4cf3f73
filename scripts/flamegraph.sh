#!/usr/bin/env bash
# Work-unit flamegraphs for the polyhedral engine: runs `dmc explain` over
# the four paper workloads and leaves one collapsed-stack file plus one
# explain report (with its Hotspots section) per workload in
# target/profile/.
#
#   scripts/flamegraph.sh              # all workloads
#   scripts/flamegraph.sh stencil      # one workload
#
# The .collapsed files are in Brendan Gregg's folded-stack format, with
# frames being attribution contexts (workload;stmt;read;pass;operation)
# and weights being deterministic charged work units — NOT wall-clock
# samples — so graphs are byte-identical across hosts and cache states,
# and two graphs from different commits diff meaningfully.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
workload="${1:-all}"
out="target/profile"

cargo run --release -p dmc-bench --bin dmc -- explain \
    --workload "$workload" --out-dir "$out"

# Smoke: every requested workload must have left a non-empty
# collapsed-stack file — an empty graph means the ledger charged nothing
# and the profile is useless, however cleanly `dmc explain` exited.
if [[ "$workload" == "all" ]]; then
    workloads=(lu stencil figure2 xy)
else
    workloads=("$workload")
fi
for w in "${workloads[@]}"; do
    f="$out/profile_${w}.collapsed"
    if [[ ! -s "$f" ]]; then
        echo "flamegraph.sh: $f is missing or empty" >&2
        exit 1
    fi
done

echo
echo "Collapsed stacks in $out/. Render an SVG with any folded-stack tool:"
echo "  flamegraph.pl $out/profile_stencil.collapsed > stencil.svg"
echo "  inferno-flamegraph $out/profile_stencil.collapsed > stencil.svg"
echo "or drop the file into https://www.speedscope.app/ (paste as folded)."
