#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout: bash benchmark/run.sh [flags]. Everything the build writes
# stays inside the checkout, under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/qsubbench" .
exec "$build/qsubbench" "$@"
