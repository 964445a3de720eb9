#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload read-zipf --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, trace files) stays under .bench_build there.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" "$@"
