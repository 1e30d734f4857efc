#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it. Run from anywhere; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload kernel-mixed --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and traced-run profiles stay under .bench_build/ at
# the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
