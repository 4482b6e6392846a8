#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload echo_small --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare perfbench/out/setA perfbench/out/setB
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, temporary files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
