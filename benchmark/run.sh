#!/usr/bin/env bash
# Builds the benchmark from source inside this checkout and runs it with
# the given arguments (see README.md). The binary, the Go build cache and
# Go's temporary files all live under .bench_build/ at the checkout root,
# so nothing outside the checkout is written.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
go build -o "$build/seer-benchmark" ./benchmark
exec "$build/seer-benchmark" "$@"
