#!/usr/bin/env bash
# Builds mdserver and the benchmark from the checkout's sources, then runs
# one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go build -o "$out/bin/mdserver" ./cmd/mdserver
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --server "$out/bin/mdserver" --runs "$out/runs" "$@"
