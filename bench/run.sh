#!/usr/bin/env bash
# Entry point of the acceptance driver (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. It builds the benchmark into
# .bench_build/ and hands its arguments on; the benchmark builds sfj-serve
# there too. Go's build cache and temporary files are kept inside the
# checkout, so nothing is read or written outside it. `go run ./bench` does
# the same for a developer, with the usual build cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/sfj-serve ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (no go.mod or cmd/sfj-serve here)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/sfj-bench" ./bench
exec "$build/sfj-bench" "$@"
