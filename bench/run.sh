#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root; every argument goes to the program. This is the command
# BENCHMARK.json names:
#
#   bash bench/run.sh --workload telco_repeat --seed 1 --seconds 20 --trace 0
#
# The build and Go's caches live in .bench_build/, so nothing outside the
# checkout is written.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/qtbench" .)
cd "$root"
exec "$build/qtbench" "$@"
