#!/usr/bin/env bash
# Builds the benchmark program and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the checkout: build cache, temporary files, the
# built binaries, the work directory and the results.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
