#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the arguments given. Everything the Go toolchain writes (build cache,
# temporary files, the binary) stays under .bench_build/ in that checkout.
# Outside a checkout of the module (no go.mod, no internal/) the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: start it from the root of a checkout of the oooback module" >&2
	exit 1
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
