#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the build and the
# run write stays inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$build/mpdp-benchmark" ./benchmark
exec "$build/mpdp-benchmark" "$@"
