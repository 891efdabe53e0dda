#!/usr/bin/env bash
# Builds agreeperf into <checkout>/.bench_build and runs it from the checkout
# root with the arguments given. Everything the toolchain writes (build cache,
# temp files, its own counters, the binary) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/agreeperf" ./benchmarks/agreeperf
exec "$build/agreeperf" "$@"
