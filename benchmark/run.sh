#!/usr/bin/env bash
# The BENCHMARK.json command: build the benchmark from source into
# .bench_build/ and run it with the driver's arguments. The compiler's cache
# lives there too, so a run writes nothing outside the checkout and builds
# the same whether or not the machine has built Go before.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=-modcacherw
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
