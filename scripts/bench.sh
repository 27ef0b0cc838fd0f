#!/usr/bin/env bash
# bench.sh — run the bench_test.go suite, emit a schema-versioned
# BENCH_<n>.json snapshot, and compare it against the committed
# baselines (regression gates on BenchmarkFig7Throughput,
# BenchmarkFig5WeightSweep and BenchmarkDeviceSetup; see cmd/benchjson):
# ns/op and allocs/op against BENCH_0.json, and allocs/op against the
# newest other BENCH_<n>.json (n >= 1), where ns/op is only advisory.
#
# Usage:
#   scripts/bench.sh                  # full run, next free BENCH_<n>.json
#   BENCH=Fig7 scripts/bench.sh       # only benchmarks matching a pattern
#   BENCHTIME=5x scripts/bench.sh     # more iterations for stabler numbers
#   OUT=BENCH_0.json scripts/bench.sh # regenerate the baseline in place
#
# The BENCH_0.json comparison is skipped when regenerating that file
# itself. Both comparisons run; the script fails if either does.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern=${BENCH:-.}
benchtime=${BENCHTIME:-1x}

out=${OUT:-}
if [ -z "$out" ]; then
    n=1
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    out="BENCH_${n}.json"
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "== go test -bench '$pattern' -benchtime $benchtime" >&2
go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -timeout 60m . | tee "$raw"

go run ./cmd/benchjson parse < "$raw" > "$out"
echo "== wrote $out" >&2

latest= latest_n=0
for f in BENCH_*.json; do
    n=${f#BENCH_}
    n=${n%.json}
    case $n in '' | *[!0-9]*) continue ;; esac
    if [ "$f" != "$out" ] && [ "$n" -gt "$latest_n" ]; then
        latest=$f latest_n=$n
    fi
done

status=0
if [ "$out" != "BENCH_0.json" ] && [ -e "BENCH_0.json" ]; then
    echo "== comparing against BENCH_0.json" >&2
    go run ./cmd/benchjson compare BENCH_0.json "$out" || status=1
fi
if [ -n "$latest" ]; then
    echo "== comparing allocs/op against $latest (ns/op advisory)" >&2
    go run ./cmd/benchjson compare -allocs-only "$latest" "$out" || status=1
fi
exit "$status"
