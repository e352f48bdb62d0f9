#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash benchmark/run.sh --workload warm_repeat
#
# Everything the build writes stays inside the checkout: the binary and the
# Go build cache live under .bench_build/, reports under benchmark/out/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/benchmark/main.go" ] || [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a full checkout (go.mod and benchmark/ side by side)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/gcbenchmark" .)
exec "$build/gcbenchmark" "$@"
