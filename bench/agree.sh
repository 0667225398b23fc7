#!/usr/bin/env bash
# Self-agreement check: measures every workload RUNS times (default 3, one
# seed each) into set a, then again into set b, and compares the two sets
# against the bounds in BENCHMARK.json. Exits non-zero when a metric of b is
# WORSE than a by more than its bound: on the same code that means the
# benchmark, or the machine, is not steady enough for that bound.
#
#   bash bench/agree.sh [RUNS] [arguments for the benchmark, e.g. --seconds 5]
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
runs=${1:-3}
shift || true
out="$root/bench/out/agree"
rm -rf "$out"
for set in a b; do
	for seed in $(seq 1 "$runs"); do
		bash "$root/bench/run.sh" --seed "$seed" --out "$out/$set" "$@" >/dev/null
	done
done
bash "$root/bench/run.sh" --compare "$out/a/results.jsonl" "$out/b/results.jsonl"
