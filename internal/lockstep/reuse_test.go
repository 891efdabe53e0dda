package lockstep_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/lockstep"
	"repro/internal/sim"
)

// shardGoroutines returns how many goroutines run a lockstep shard loop, read
// from every goroutine's stack, once that number has come down to want or
// leakcheck.Timeout has passed: a shard of a runtime an earlier test closed
// counts until it has returned. Goroutines other than shards never count, so
// the figure does not depend on what else the test binary runs or frees.
func shardGoroutines(want int) int {
	buf := make([]byte, 64<<10)
	count := func() int {
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				return strings.Count(string(buf[:n]), "lockstep.(*shard).loop(")
			}
			buf = make([]byte, 2*len(buf))
		}
	}
	got := count()
	for deadline := time.Now().Add(leakcheck.Timeout); got > want && time.Now().Before(deadline); got = count() {
		runtime.Gosched()
	}
	return got
}

// TestRuntimeShardGoroutines pins the shard count: at GOMAXPROCS 2 an n=64
// job runs on exactly two shard goroutines, a later n=8 job reuses them and
// spawns none, and Close releases both. The shards are counted by their
// stack frames, not as a goroutine-count delta, which a goroutine of an
// earlier test exiting in between would shift.
// scripts/verify.sh runs this under -race -count=10.
func TestRuntimeShardGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if got := shardGoroutines(0); got != 0 {
		t.Fatalf("%d shard goroutines before the runtime is built, want 0", got)
	}
	cfg := lockstep.Config{Model: sim.ModelExtended}
	rt, err := lockstep.New(cfg, core.NewSystem(props(64), core.Options{}), adversary.CoordinatorKiller{F: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	run := func(job string) {
		t.Helper()
		if _, err := rt.Run(); err != nil {
			t.Fatalf("%s job: %v", job, err)
		}
		if got := shardGoroutines(2); got != 2 {
			t.Errorf("after the %s job: %d shard goroutines, want 2", job, got)
		}
	}
	run("n=64")
	if err := rt.Reset(cfg, core.NewSystem(props(8), core.Options{}), adversary.None{}); err != nil {
		t.Fatal(err)
	}
	run("later n=8")
	rt.Close()
	rt.Close() // idempotent
	if got := shardGoroutines(0); got != 0 {
		t.Errorf("%d shard goroutines after Close, want 0", got)
	}
	if err := rt.Reset(cfg, core.NewSystem(props(8), core.Options{}), adversary.None{}); err == nil {
		t.Error("Reset accepted on a closed runtime")
	}
}

// TestResetAllocsAtSeenSize pins the grow-only design: rearming at a process
// count no larger than one already seen spawns nothing and reallocates
// nothing, and a run abort leaves nothing behind but mail, so rearming
// allocates nothing at all.
func TestResetAllocsAtSeenSize(t *testing.T) {
	cfg := lockstep.Config{Model: sim.ModelExtended}
	rt, err := lockstep.New(cfg, core.NewSystem(props(64), core.Options{}), adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	procs := core.NewSystem(props(8), core.Options{})
	allocs := testing.AllocsPerRun(100, func() {
		if err := rt.Reset(cfg, procs, adversary.None{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Reset to a seen size allocates %.1f times, want 0", allocs)
	}
}

// TestReusedRunAllocs pins the exact allocation count of the reuse path: a
// runtime already sized for n=32 is rearmed with a fresh system and run
// under four coordinator crashes, process construction included. Any
// increase fails; when a change lowers the count, ratchet the pin down to the
// new figure in the same change.
func TestReusedRunAllocs(t *testing.T) {
	cfg := lockstep.Config{Model: sim.ModelExtended}
	vals := props(32)
	rt, err := lockstep.New(cfg, core.NewSystem(vals, core.Options{}), adversary.CoordinatorKiller{F: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := rt.Reset(cfg, core.NewSystem(vals, core.Options{}), adversary.CoordinatorKiller{F: 4}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
	})
	const pin = 5
	if allocs > pin {
		t.Errorf("reused lockstep run allocates %v allocs/run, pinned at %d; ratchet the pin down when the count falls",
			allocs, pin)
	}
}

// TestNewAllocs pins the exact allocation count of building a runtime for
// n=64 and closing it: each spawned shard costs its wake channel and its
// goroutine's closure (AllocsPerRun measures at GOMAXPROCS 1, so one shard),
// and everything else — the shard structs, the mail slab with every outbox,
// the owner, range-offset and phase-list indices, the kernel's per-process
// state, outcomes and inbox seeds — is one slab apiece.
// Any increase fails; when a change lowers the count, ratchet the pin down.
func TestNewAllocs(t *testing.T) {
	cfg := lockstep.Config{Model: sim.ModelExtended}
	procs := core.NewSystem(props(64), core.Options{})
	allocs := testing.AllocsPerRun(20, func() {
		rt, err := lockstep.New(cfg, procs, adversary.None{})
		if err != nil {
			t.Fatal(err)
		}
		rt.Close()
	})
	const pin = 11
	if allocs > pin {
		t.Errorf("lockstep.New + Close at n=64 allocates %v allocs, pinned at %d; ratchet the pin down when the count falls",
			allocs, pin)
	}
}

// TestMemoryLinearInN pins the runtime's memory to O(n + messages): building
// a runtime for CRW at n=1024, running it under four coordinator crashes and
// closing it allocates under 4 MB in all. A structure indexed by process
// pair — two message cells per directed channel — would be ≈101 MB alone.
// The system is built outside the measurement.
func TestMemoryLinearInN(t *testing.T) {
	const n, limit = 1024, 4 << 20
	procs := core.NewSystem(props(n), core.Options{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt, err := lockstep.New(lockstep.Config{Model: sim.ModelExtended}, procs,
		adversary.CoordinatorKiller{F: 4, DeliverAllData: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	rt.Close()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MaxDecideRound(); got != 5 {
		t.Fatalf("max decide round = %d, want 5", got)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("lockstep at n=%d allocates %d bytes, want under %d", n, got, limit)
	}
}
