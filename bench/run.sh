#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload fig7-short --seed 7 --seconds 20 --trace 0
#
# The Go build cache, the binary and temporary files (profiles) all go
# under .bench_build/ at the repository root, and the toolchain is
# pinned to the local one with the module proxy off, so the run needs no
# network and writes nothing outside the repository.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/srcbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C "$root/bench" -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
