#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload svc-volatile --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL directories) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
