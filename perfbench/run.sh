#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the repository
# root:
#
#   bash perfbench/run.sh --workload figs --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary and Go build cache) stay under .bench_build in the
# current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The Go tool's cache, module path and config (telemetry counters) go
# under the build directory too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
