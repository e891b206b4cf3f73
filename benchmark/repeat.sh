#!/usr/bin/env bash
# Runs all five workloads twice back to back with the same seed, prints both
# sets side by side, and exits non-zero if an end-to-end metric differs
# between the sets by more than its bound in BENCHMARK.json (the two exact
# metrics must be identical). Then runs every workload once with a second
# seed, to show the workloads still build and verify on other inputs.
#
#   bash benchmark/repeat.sh [seed] [second-seed]
#
# Takes about six minutes. Store directories live under benchmark/out and
# are removed by the benchmark itself when each run ends.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
other_seed="${2:-2}"
workloads=(lu_plan symbolic_corpus store_cold store_warm verify_values)
mkdir -p "$here/out"
results="$(mktemp -d "$here/out/repeat.XXXXXX")"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
trap 'rm -rf "$results"' EXIT

run() { # run <set> <workload> <seed>
  bash "$here/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1 >"$results/$1.$2.json"
}

for set in first second; do
  for w in "${workloads[@]}"; do
    echo "set $set: $w (seed $seed)" >&2
    run "$set" "$w" "$seed"
  done
done
for w in "${workloads[@]}"; do
  echo "second seed: $w (seed $other_seed)" >&2
  run other "$w" "$other_seed"
done

python3 - "$here/../BENCHMARK.json" "$results" "${workloads[@]}" <<'EOF'
import json, sys

spec = json.load(open(sys.argv[1]))
results, workloads = sys.argv[2], sys.argv[3:]
exact = {"sim_makespan_ns", "plan_words"}
bad = 0
print(f"{'workload':16} {'metric':16} {'first':>16} {'second':>16} {'diff':>8} {'bound':>7}")
for w in workloads:
    first, second, other = (json.load(open(f"{results}/{s}.{w}.json")) for s in ("first", "second", "other"))
    for run in (first, second, other):
        if not run["correct"] or run["failed"]:
            print(f"{w}: {run['failed']} of {run['attempted']} requests failed")
            bad += 1
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        diff = abs(b - a) / a
        ok = a == b if name in exact else diff <= bound
        # The exact metrics do not move with the seed either.
        if name in exact and other["metrics"][name]["value"] != a:
            ok = False
        bad += not ok
        print(f"{w:16} {name:16} {a:16.6f} {b:16.6f} {diff:8.4f} {bound:7.3f}{'' if ok else '  <-- outside'}")
sys.exit(1 if bad else 0)
EOF
