package lockstep_test

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/leakcheck"
	"repro/internal/lockstep"
	"repro/internal/sim"
)

// overflow makes its process send data+1 messages to p_to in round 1 —
// data data messages and a commit — more than a channel carries in a round
// when data ≥ 2.
type overflow struct {
	sim.Process
	to   sim.ProcID
	data int
}

func (o overflow) Send(r sim.Round) sim.SendPlan {
	if r != 1 {
		return o.Process.Send(r)
	}
	est := &sim.Est{V: 1, B: 64}
	plan := sim.SendPlan{Control: []sim.ProcID{o.to}}
	for range o.data {
		plan.Data = append(plan.Data, sim.Outgoing{To: o.to, Payload: est})
	}
	return plan
}

// reuseJob is one arming of a runtime: the protocol, the adversary and, for
// the aborted run, the process to replace with an overflowing one.
type reuseJob struct {
	kind     string
	n        int
	adv      func(n int) sim.Adversary
	overflow bool
}

// TestRuntimeReuseAcrossSizes drives one runtime through growing and
// shrinking process counts, with an aborted run in the middle. Every
// completed run must equal a fresh deterministic-engine run of the same job,
// so stale mail or stale kernel state from an earlier size shows up as a
// diff.
// scripts/verify.sh runs this under -race -count=10.
func TestRuntimeReuseAcrossSizes(t *testing.T) {
	killer := func(n int) sim.Adversary { return adversary.CoordinatorKiller{F: n / 8, DeliverAllData: true} }
	none := func(int) sim.Adversary { return adversary.None{} }
	jobs := []reuseJob{
		{kind: "crw", n: 8, adv: killer},
		{kind: "crw", n: 64, adv: killer},
		{kind: "floodset", n: 8, adv: none},
		{kind: "earlystop", n: 32, adv: func(int) sim.Adversary {
			return adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
				1: {Round: 1, DataMask: []bool{true, false, true}},
				2: {Round: 2},
			})
		}},
		// p1's round-1 mail is in an outbox when p2 overflows, so the next
		// arming starts over an outbox the abort left full.
		{kind: "crw", n: 64, adv: none, overflow: true},
		{kind: "crw", n: 16, adv: func(n int) sim.Adversary {
			s, err := fuzz.Parse("p1@r1:so:101/01;p3@r1:ro:" + strings.Repeat("0", n) + ";p3@r2:ro:01")
			if err != nil {
				t.Fatal(err)
			}
			return s.Adversary()
		}},
	}
	var rt *lockstep.Runtime
	var crashed, omissive bool
	for i, job := range jobs {
		procs, model := buildSystem(t, job.kind, props(job.n))
		if job.overflow {
			procs[1] = overflow{Process: procs[1], to: 1, data: 2}
		}
		cfg := lockstep.Config{Model: model}
		var err error
		if rt == nil {
			rt, err = lockstep.New(cfg, procs, job.adv(job.n))
			t.Cleanup(func() { rt.Close() })
		} else {
			err = rt.Reset(cfg, procs, job.adv(job.n))
		}
		if err != nil {
			t.Fatalf("job %d (n=%d): arming: %v", i, job.n, err)
		}
		got, err := rt.Run()
		if job.overflow {
			if err == nil || !strings.Contains(err.Error(), "sim: p2 sends 3 messages to p1 in one round (channel capacity 2) (round 1)") {
				t.Fatalf("job %d (n=%d): err = %v, want the capacity error", i, job.n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("job %d (n=%d): %v", i, job.n, err)
		}
		fresh, _ := buildSystem(t, job.kind, props(job.n))
		eng, err := sim.NewEngine(sim.Config{Model: model}, fresh, job.adv(job.n))
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Run()
		if err != nil {
			t.Fatalf("job %d (n=%d): deterministic engine: %v", i, job.n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d (%s, n=%d): lockstep %+v\nwant %+v", i, job.kind, job.n, got, want)
		}
		crashed = crashed || want.Faults() > 0
		omissive = omissive || want.OmissionFaulty() > 0
	}
	if !crashed || !omissive {
		t.Errorf("jobs exercised crashes %v, omissions %v; want both", crashed, omissive)
	}
}

// TestRuntimeCloseReleasesGoroutines pins the runtime's lifetime: Close
// returns only once every shard goroutine — including those spawned for a
// larger earlier job and idle since — has exited. It runs at GOMAXPROCS 32,
// so the n=32 job runs one goroutine per process, the runtime's old shape.
// scripts/verify.sh runs this under -race -count=10.
func TestRuntimeCloseReleasesGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(32))
	base := runtime.NumGoroutine()
	cfg := lockstep.Config{Model: sim.ModelExtended}
	rt, err := lockstep.New(cfg, core.NewSystem(props(32), core.Options{}), adversary.CoordinatorKiller{F: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Reset(cfg, core.NewSystem(props(8), core.Options{}), adversary.None{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got < 32 {
		t.Fatalf("%d goroutines with a 32-shard runtime, want at least 32", got)
	}
	rt.Close()
	rt.Close() // idempotent
	if got := leakcheck.Settle(base, leakcheck.Timeout); got > base {
		t.Errorf("%d goroutines after Close, want the baseline %d", got, base)
	}
	if err := rt.Reset(cfg, core.NewSystem(props(8), core.Options{}), adversary.None{}); err == nil {
		t.Error("Reset accepted on a closed runtime")
	}
}

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
	if got := shardGoroutines(0); got != 0 {
		t.Errorf("%d shard goroutines after Close, want 0", got)
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

// badOutcome crashes p1 in round 1 with a delivery mask that does not fit
// its plan, which the runtime must reject as sim.ErrBadOutcome.
type badOutcome struct{}

func (badOutcome) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if p != 1 || r != 1 {
		return false, sim.CrashOutcome{}
	}
	return true, sim.CrashOutcome{DataDelivered: make([]bool, len(plan.Data)+1)}
}

// crashAll crashes every process in round 1.
func crashAll(n int) sim.Adversary {
	plans := make(map[sim.ProcID]adversary.CrashPlan, n)
	for id := 1; id <= n; id++ {
		plans[sim.ProcID(id)] = adversary.CrashPlan{Round: 1}
	}
	return adversary.NewScript(plans)
}

// TestRuntimeCloseAfterAbort ends runs on every abort path of the phase
// barrier — a model violation or a bad adversary outcome in a round the
// other processes survived, horizon exhaustion, a round in which every
// process crashes, and a capacity violation after p1 has sent its round-1
// mail — and then either closes the runtime at once or rearms it for a
// system of 2n processes, runs that cleanly against the deterministic
// engine, and closes it. Either way every shard goroutine must be gone
// afterwards, and the mail the aborted round left behind must not reach the
// next run: the capacity abort runs at 2n itself, so the rearmed runtime
// reuses the outboxes holding p1's mail.
// scripts/verify.sh runs this under -race -count=10.
func TestRuntimeCloseAfterAbort(t *testing.T) {
	const n = 8
	aborts := []struct {
		name  string
		model sim.Model
		hor   sim.Round
		adv   sim.Adversary
		err   error
		size  int // the aborted system's process count, n when zero
	}{
		{"classic-control", sim.ModelClassic, 0, adversary.None{}, sim.ErrControlInClassic, 0},
		{"bad-outcome", sim.ModelExtended, 0, badOutcome{}, sim.ErrBadOutcome, 0},
		{"horizon", sim.ModelExtended, 1, adversary.CoordinatorKiller{F: 2}, sim.ErrNoProgress, 0},
		{"all-crash", sim.ModelExtended, 0, crashAll(n), nil, 0},
		{"capacity", sim.ModelExtended, 0, adversary.None{}, nil, 2 * n},
	}
	for _, ab := range aborts {
		for _, rearm := range []bool{false, true} {
			name := ab.name + "/close"
			if rearm {
				name = ab.name + "/rearm"
			}
			t.Run(name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				procs := core.NewSystem(props(n), core.Options{})
				if ab.size != 0 {
					procs = core.NewSystem(props(ab.size), core.Options{})
					procs[1] = overflow{Process: procs[1], to: 1, data: 2}
				}
				rt, err := lockstep.New(lockstep.Config{Model: ab.model, Horizon: ab.hor}, procs, ab.adv)
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				res, err := rt.Run()
				switch {
				case ab.size != 0:
					if err == nil || !strings.Contains(err.Error(), "channel capacity 2") {
						t.Fatalf("err = %v, want the capacity error", err)
					}
				case !errors.Is(err, ab.err):
					t.Fatalf("err = %v, want %v", err, ab.err)
				case ab.err == nil && res.Faults() != n:
					t.Fatalf("%d crashes, want all %d", res.Faults(), n)
				}
				if rearm {
					adv := func() sim.Adversary { return adversary.CoordinatorKiller{F: 3, DeliverAllData: true} }
					cfg := lockstep.Config{Model: sim.ModelExtended}
					if err := rt.Reset(cfg, core.NewSystem(props(2*n), core.Options{}), adv()); err != nil {
						t.Fatal(err)
					}
					got, err := rt.Run()
					if err != nil {
						t.Fatalf("run after the abort: %v", err)
					}
					eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended},
						core.NewSystem(props(2*n), core.Options{}), adv())
					if err != nil {
						t.Fatal(err)
					}
					want, err := eng.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("run after the abort: lockstep %+v\nwant %+v", got, want)
					}
				}
				rt.Close()
				if got := leakcheck.Settle(base, leakcheck.Timeout); got > base {
					t.Errorf("%d goroutines after Close, want the baseline %d", got, base)
				}
			})
		}
	}
}
