#!/usr/bin/env bash
# bench.sh — run the E-series benchmarks and persist a machine-readable
# snapshot, so the performance trajectory of the repo is tracked commit over
# commit (see docs/benchmarks.md).
#
# Usage:
#   scripts/bench.sh                 # all E-series + engine benchmarks
#   scripts/bench.sh 'BenchmarkE5'   # a subset, by regexp
#   BENCHTIME=3s scripts/bench.sh    # longer per-benchmark runtime
#
# Output: benchmark text on stdout, plus BENCH_<UTC date>.json in the repo
# root: one record per benchmark with every reported metric (ns/op, B/op,
# allocs/op, and the domain metrics like rounds/msgs/executions).
set -euo pipefail
cd "$(dirname "$0")/.."

pattern="${1:-^(BenchmarkE[0-9]+|BenchmarkExploreParallel|BenchmarkSweep|BenchmarkFuzz|BenchmarkDeterministicEngine|BenchmarkLockstepEngine|BenchmarkTimedEngine|BenchmarkTelemetryOverhead|BenchmarkServe|BenchmarkSMRThroughput)}"
benchtime="${BENCHTIME:-1s}"
stamp="$(date -u +%Y-%m-%d)"
out="BENCH_${stamp}.json"
txt="$(mktemp)"
trap 'rm -f "$txt"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" . | tee "$txt"

if ! grep -q '^Benchmark' "$txt"; then
    echo "bench.sh: pattern '$pattern' matched no benchmarks; not writing $out" >&2
    exit 1
fi

awk -v date="$stamp" '
BEGIN { print "{"; printf "  \"date\": \"%s\",\n  \"benchmarks\": [", date; n = 0 }
/^goos:/    { goos = $2 }
/^goarch:/  { goarch = $2 }
/^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    if (n++) printf ",";
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix, as bench_compare.sh does
    printf "\n    {\"name\": \"%s\", \"iterations\": %s", name, $2;
    for (i = 3; i + 1 <= NF; i += 2)
        printf ", \"%s\": %s", $(i + 1), $i;
    printf "}";
}
END {
    print "\n  ],";
    printf "  \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"\n}\n", goos, goarch, cpu;
}' "$txt" > "$out"

echo "wrote $out"
