#!/usr/bin/env bash
# verify.sh — the tier-1 verification path: build, vet, test, then the
# scenario catalog and the benchmark's smoke pass. Run before every commit;
# every test additionally runs under the race detector, the differential
# ones repeatedly.
set -euo pipefail
cd "$(dirname "$0")/.."

# Nothing verify started, and no tool or test binary, may outlive it. The
# check runs from the EXIT trap, so it also runs when a step fails: it
# prints any leftovers and makes the exit non-zero, and a failed step keeps
# its own exit code.
leftovers() {
	local code=$?
	echo "== leftover processes"
	local left
	if left=$(ps -eo comm= | grep -E '^(agreeperf|agree(run|sim|fuzz|serve|bench|xplore)|go|compile|link|vet)$|\.tes'); then
		echo "verify: processes left running:"
		echo "$left"
		if [ "$code" -eq 0 ]; then
			code=1
		fi
	fi
	if [ "$code" -eq 0 ]; then
		echo "verify: OK"
	fi
	exit "$code"
}
trap leftovers EXIT

echo "== go build ./..."
go build ./...

# The golden harness lives in a package only tests import, so no binary
# links package testing.
echo "== no cmd/ binary links testing"
deps=$(go list -deps ./cmd/...)
if grep -qx testing <<<"$deps"; then
	echo "verify: a cmd/ binary links package testing"
	exit 1
fi

echo "== go vet ./..."
go vet ./...

# CI's lint job runs gofmt as well. Only the repository's own Go files are
# checked, tracked or new, so nothing under .bench_build/ is scanned.
echo "== gofmt -l"
go_files=$(git ls-files --cached --others --exclude-standard '*.go')
unformatted=$(gofmt -l $go_files </dev/null)
if [ -n "$unformatted" ]; then
	echo "verify: gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

# The round semantics live once, in sim's round kernel: the timed engine
# only schedules and prices messages. A non-test file of internal/timed that
# consults the adversary, runs a receive phase or sorts an inbox has grown a
# second copy of them.
echo "== no round semantics in internal/timed"
if grep -nE '\.(Crashes|Omits|Receive)\(|SortInbox\(' $(ls internal/timed/*.go | grep -v '_test\.go$'); then
	echo "verify: internal/timed calls the adversary, a receive phase or SortInbox itself; use sim.Kernel"
	exit 1
fi

# The lockstep runtime schedules the same kernel's phases on its shards. A
# non-test file of internal/lockstep that runs a receive phase, sorts an
# inbox, validates a plan or books a message's fate has grown a second copy
# of the round semantics. Its adversary guard's .Crashes(/.Omits( calls are
# the only ones it makes.
echo "== no round semantics in internal/lockstep"
if grep -nE '\.Receive\(|SortInbox\(|\.Validate\(|\.(AddData|AddCtrl|Delivered|RecvOmitted|DeadDest|HaltedDest)\(' $(ls internal/lockstep/*.go | grep -v '_test\.go$'); then
	echo "verify: internal/lockstep runs round semantics itself; run sim.Kernel's phases"
	exit 1
fi

# A service session resets one consensus instance per slot and finds its
# latency percentiles by in-place selection. A non-test file of internal/smr
# that builds an instance or takes a copying percentile has brought back the
# per-slot construction or the per-percentile sort.
echo "== no per-slot construction or sorted percentiles in internal/smr"
if grep -nE '(core|earlystop)\.NewSystem\(|\.Percentile\(|sort\.Float64s\(' $(ls internal/smr/*.go | grep -v '_test\.go$'); then
	echo "verify: internal/smr builds a consensus instance or sorts for a percentile; reset the session's System and use stats.Percentiles"
	exit 1
fi

# A protocol's system under test and its round bound are built in one place,
# internal/protocol. A non-test file anywhere else that constructs or holds a
# consensus system or picks a round bound has grown a second copy of that
# mapping. The protocols' own packages, internal/check (which defines the
# bounds) and the benchmark are exempt; comment lines do not count.
echo "== one protocol spec: no system construction, system storage or bound selection outside internal/protocol"
spec_files=$(find agree cmd internal -name '*.go' ! -name '*_test.go' | grep -vE '^internal/(protocol|check|core|consensus)/')
if grep -nE '(core|earlystop|floodset)\.(NewSystem\(|System\b)|check\.Bound(Classic|FPlus1)\b' $spec_files | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "verify: a system is built or held or a round bound chosen outside internal/protocol; use protocol.Spec's Build into a protocol.Systems, and Bound"
	exit 1
fi

# Every seeded random choice draws from internal/rng's SplitMix64 stream,
# held by value, so seeding is one assignment and equal seeds replay on
# every Go release. A non-test file outside benchmarks/ that imports
# math/rand (or math/rand/v2) has brought back a second generator.
echo "== one generator: no math/rand outside tests and benchmarks/"
rand_files=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path './.*')
if grep -nE '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"math/rand(/v2)?"' $rand_files; then
	echo "verify: non-test code imports math/rand; draw from internal/rng instead"
	exit 1
fi

# Every go test carries an explicit -timeout (per package binary, below the
# ten-minute default) so a barrier deadlock fails instead of hanging.
echo "== go test ./..."
go test -timeout 300s ./...

# Shuffled and repeated: a test that leans on the order of its neighbours, or
# on state a previous run left behind, fails here instead of by accident.
echo "== go test -shuffle=on -count=2 ./..."
go test -shuffle=on -count=2 -timeout 300s ./...

# The whole tree under the race detector: every package that drives the
# worker pool, the lockstep shards or the parallel explorer, and every test
# in it, with no list of names to keep. The exact allocation pins hold their
# race figures in a -race build.
echo "== go test -race ./..."
go test -race -timeout 300s ./...

# Every campaign worker recycles one fuzz.Runner — recorder, replayer, mask
# arenas, shrink buffers — across its seeds, on its own goroutine; the
# one-tree test replays its chooser's answers on recycled recorders from
# parallel subtests.
echo "== go test -race -count=5 (recycled fuzz recorder + runner reuse across sizes, generators and findings + slice replayer differentials + one fault-choice tree)"
go test -race -count=5 -timeout 300s -run 'RecycledRecorder|RunnerReuse|ReplayerMatches|OneTree' ./internal/fuzz/

# The control and crash-mask tables are shared by every system, a received
# payload is copied out of its sender's slot, and one protocol.Systems is
# rebuilt across protocols and sizes.
echo "== go test -race -count=5 (shared control and crash-mask tables + payloads copied out on receive + consensus System reset + protocol.Systems reuse)"
go test -race -count=5 -timeout 300s -run 'PayloadLifetime|OutcomeMasks|ControlTables|SystemReset|SpecBuildReuse' ./internal/adversary/ ./internal/core/ ./internal/consensus/... ./internal/protocol/

# The engine contract runs on every registered engine: the reference model
# (lockstep also at GOMAXPROCS = n), reuse across sizes, plan, payload, mask
# and result lifetimes, every abort path followed by Close, capabilities.
echo "== go test -race -count=10 (the engine contract on every engine + lockstep shard count at GOMAXPROCS 2 + chooser-tree mask regions read across shards + lockstep against the deterministic engine at GOMAXPROCS = n + lockstep memory linear in n + the timed engine's recycled result after clock violations)"
go test -race -count=10 -timeout 300s -run 'TestConcurrentEngineContract|RuntimeShard|DifferentialEnginesUnderRandomScripts|MemoryLinearInN|ResultLifetime' ./internal/lockstep/ ./internal/harness/ ./internal/timed/

echo "== scenario catalog (all engines)"
go run ./cmd/agreesim -run all -engines all

# Every agreeperf workload at 1 % scale: its correctness checks and the
# cross-engine result digests. Results go under .bench_build/ so the
# committed baselines in benchmarks/results/ stay untouched.
echo "== agreeperf smoke"
bash benchmarks/run.sh -smoke -out .bench_build/smoke-results
