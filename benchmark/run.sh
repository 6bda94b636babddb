#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. It builds the benchmark program
# from source inside the checkout (own build cache, so nothing is read or
# written outside it) and runs it from the repository root with the
# arguments it was given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/netembed-benchmark" .)
cd "$root"
exec "$build/netembed-benchmark" "$@"
