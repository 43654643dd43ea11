#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the caller's arguments. Everything the go tool writes (build cache,
# temp files, telemetry) is pointed at .bench_build so the run reads and
# writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/csim-benchmark" .
exec "$build/csim-benchmark" -dir "$here" "$@"
