#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Called from the root of a checkout as: bash benchmark/run.sh <flags>.
# Everything the Go toolchain writes (build cache, module cache, the
# binary) goes under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchmark/main.go" ]]; then
	echo "benchmark: run from the root of a checkout of the repo (go.mod and internal/ not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
# Reports name the commit they measured; a checkout without git says so.
BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
exec "$build/benchmark" "$@"
