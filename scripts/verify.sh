#!/usr/bin/env bash
# verify.sh — the tier-1 verification path: build, vet, test, then the
# scenario catalog and the benchmark's smoke pass. Run before every commit;
# the differential tests additionally run under the race detector.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# Every go test carries an explicit -timeout (per package binary, below the
# ten-minute default) so a barrier deadlock fails instead of hanging.
echo "== go test ./..."
go test -timeout 300s ./...

echo "== go test -race (parallel explorer + sweep/cross-check + fuzz-campaign + omission + timed differential + pooled-DES differential + law-audit + telemetry + plan-lifetime tests)"
go test -race -timeout 300s -run 'ExploreParallel|Sweep|CrossCheck|Fuzz|Omission|Timed|Law|Planted|Conservation|Audit|Determinism|Pooled|Handle|Telemetry|Chrome|PlanLifetime' ./internal/check/ ./agree/ ./internal/lockstep/ ./internal/harness/ ./internal/fuzz/ ./internal/sim/ ./internal/timed/ ./internal/des/ ./internal/laws/ ./internal/smr/ ./internal/telemetry/

echo "== go test -race -count=10 (lockstep runtime reuse across sizes + Close lifetime)"
go test -race -count=10 -timeout 300s -run 'RuntimeReuse|RuntimeClose' ./internal/lockstep/

echo "== scenario catalog (deterministic engine)"
go run ./cmd/agreesim -run all -engines deterministic

# Every agreeperf workload at 1 % scale: its correctness checks and the
# cross-engine result digests. Results go under .bench_build/ so the
# committed baselines in benchmarks/results/ stay untouched.
echo "== agreeperf smoke"
bash benchmarks/run.sh -smoke -out .bench_build/smoke-results

echo "verify: OK"
