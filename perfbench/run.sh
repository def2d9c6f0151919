#!/usr/bin/env bash
# Builds pepcd and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload n4-churn --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and trace stays inside the checkout
# (.bench_build, .bench_out); nothing is fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
go build -o "$build/pepcd" ./cmd/pepcd >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -pepcd "$build/pepcd" -out "$root/.bench_out" "$@"
