#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim_share_trace --seed 1 --seconds 30 --trace 0
#
# Build cache, binary and span files stay under .bench_build/ in the current
# directory; nothing is fetched (GOPROXY=off), so a tree without the
# repository's own module next to perfbench/ fails to build and exits nonzero.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
