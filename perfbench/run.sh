#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload clients --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, module cache and
# binary live under .bench_build/ in the working directory, so nothing is
# written outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export XDG_CONFIG_HOME="$out/config"
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
