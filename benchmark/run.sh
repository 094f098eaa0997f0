#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes (Go build cache, binary, work files) stays under .bench_build/
# at the root of the checkout, so a run reads and writes only there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/work"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -workdir "$build/work" -results "$here/results" -spec "$root/BENCHMARK.json" "$@"
