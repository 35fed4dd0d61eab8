#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the toolchain writes (build cache included) stays under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
