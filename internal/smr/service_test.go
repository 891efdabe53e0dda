package smr_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/lan"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/timed"
	"repro/internal/workload"
)

// mustServe runs the service and fails the test on error.
func mustServe(t *testing.T, opts smr.ServeOptions) *smr.ServeResult {
	t.Helper()
	res, err := smr.Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// openPoisson builds a fresh open-loop Poisson source (Serve consumes the
// iterator, so every invocation needs its own).
func openPoisson(t *testing.T, rate float64, seed int64) *workload.Open {
	t.Helper()
	o, err := workload.NewOpen(workload.Poisson{Rate: rate}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestServePipelinedThroughput pins the service's headline property: with
// pipelining a saturated log commits one slot per round duration, so the
// same workload finishes in a fraction of the unpipelined time.
func TestServePipelinedThroughput(t *testing.T) {
	base := func() smr.ServeOptions {
		clients, err := workload.NewClosed(6, 0, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		return smr.ServeOptions{
			N: 4, RotateLeader: true,
			Latency:     timed.Fixed{D: 1, Delta: 0.1},
			Clients:     clients,
			MaxCommands: 600,
		}
	}
	pip := mustServe(t, base())
	opts := base()
	opts.NoPipeline = true
	seq := mustServe(t, opts)

	if pip.Commands != 600 || seq.Commands != 600 {
		t.Fatalf("commands = %d / %d, want 600 each", pip.Commands, seq.Commands)
	}
	// Failure-free extended-model slots decide in one round, so pipelined
	// and unpipelined coincide here on slot spacing — but the pipelined
	// schedule must launch exactly one slot per round duration.
	wantSlots := 100 // 6 commands per slot
	if pip.Slots != wantSlots {
		t.Errorf("pipelined slots = %d, want %d", pip.Slots, wantSlots)
	}
	if got, want := pip.LastCommit, float64(wantSlots-1)*1.1+1.1; math.Abs(got-want) > 1e-9*want {
		t.Errorf("pipelined last commit at %g, want %g", got, want)
	}
	if pip.PerHour() < 1 {
		t.Errorf("PerHour = %g, want positive", pip.PerHour())
	}
	// One engine for the whole service lifetime.
	if pip.EnginesBuilt != 1 || pip.EngineReuses != pip.Slots-1 {
		t.Errorf("engines built/reused = %d/%d, want 1/%d", pip.EnginesBuilt, pip.EngineReuses, pip.Slots-1)
	}
}

// TestServePipelineBeatsSequential exercises the regime where pipelining
// actually changes the schedule: with a dead static coordinator every slot
// takes two rounds, so the unpipelined log halves its launch rate while the
// pipelined one keeps launching every round duration.
func TestServePipelineBeatsSequential(t *testing.T) {
	base := func() smr.ServeOptions {
		o, err := workload.NewOpen(workload.Fixed{Rate: 10}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return smr.ServeOptions{
			N: 4, RotateLeader: false,
			Latency:     timed.Fixed{D: 1, Delta: 0.1},
			Arrivals:    o,
			BatchLimit:  1,
			MaxCommands: 200,
			CrashAt:     map[sim.ProcID]float64{1: 0},
		}
	}
	pip := mustServe(t, base())
	opts := base()
	opts.NoPipeline = true
	seq := mustServe(t, opts)
	if pip.RoundsPerCommit() != 2 || seq.RoundsPerCommit() != 2 {
		t.Fatalf("rounds/commit = %g / %g, want 2 (dead static coordinator)", pip.RoundsPerCommit(), seq.RoundsPerCommit())
	}
	// Pipelined: slots launch every 1.1; sequential: every 2.2.
	if ratio := seq.LastCommit / pip.LastCommit; ratio < 1.8 {
		t.Errorf("sequential/pipelined makespan ratio = %g, want ~2", ratio)
	}
	if pip.PerHour() < 1.8*seq.PerHour() {
		t.Errorf("pipelined %g cmds/hour vs sequential %g, want ~2x", pip.PerHour(), seq.PerHour())
	}
}

// TestServeLeaderRecovery pins the recovery metric against the analytic
// bounds: a leader crash costs exactly one round duration with rotation (the
// next instance starts with a live coordinator) and two without (the dead
// coordinator wastes the first round of the recovery instance).
func TestServeLeaderRecovery(t *testing.T) {
	const roundDur = 1.1
	run := func(rotate bool) *smr.ServeResult {
		clients, err := workload.NewClosed(4, 0, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		return mustServe(t, smr.ServeOptions{
			N: 4, RotateLeader: rotate,
			Latency:     timed.Fixed{D: 1, Delta: 0.1},
			Clients:     clients,
			MaxCommands: 100,
			CrashAt:     map[sim.ProcID]float64{1: 5 * roundDur},
		})
	}
	for _, tc := range []struct {
		rotate bool
		want   float64 // recovery in round durations
	}{
		{rotate: true, want: 1},
		{rotate: false, want: 2},
	} {
		res := run(tc.rotate)
		if len(res.Recoveries) != 1 {
			t.Fatalf("rotate=%v: %d recoveries, want 1 (%v)", tc.rotate, len(res.Recoveries), res.Recoveries)
		}
		rec := res.Recoveries[0]
		if rec.Replica != 1 {
			t.Errorf("rotate=%v: recovered from replica %d, want 1", tc.rotate, rec.Replica)
		}
		want := tc.want * roundDur
		if got := rec.Duration(); math.Abs(got-want) > 1e-9 {
			t.Errorf("rotate=%v: recovery = %g, want %g (%g round durations)", tc.rotate, got, want, tc.want)
		}
		if res.Crashed[1] != 5*roundDur {
			t.Errorf("rotate=%v: crash time recorded as %g, want %g", tc.rotate, res.Crashed[1], 5*roundDur)
		}
	}
}

// TestServeNonLeaderCrashNoRecovery pins that only leader crashes produce
// recovery records.
func TestServeNonLeaderCrashNoRecovery(t *testing.T) {
	clients, err := workload.NewClosed(4, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := mustServe(t, smr.ServeOptions{
		N: 4, RotateLeader: true,
		Latency:     timed.Fixed{D: 1, Delta: 0.1},
		Clients:     clients,
		MaxCommands: 100,
		CrashAt:     map[sim.ProcID]float64{3: 2.2},
	})
	if len(res.Recoveries) != 0 {
		t.Errorf("non-leader crash produced recoveries %v", res.Recoveries)
	}
	if _, dead := res.Crashed[3]; !dead {
		t.Error("crash of replica 3 not recorded")
	}
}

// TestServeOmissionInjection drives send-omission faults mid-stream. A
// non-coordinator's dropped rounds are benign for the extended-model
// protocol — decisions ride the coordinator's pipelined commit — but every
// omissive round must register in the service's omission ledger and the
// per-slot budget audit must stay clean.
func TestServeOmissionInjection(t *testing.T) {
	clients, err := workload.NewClosed(5, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := mustServe(t, smr.ServeOptions{
		N: 5, RotateLeader: true,
		Latency:     timed.Fixed{D: 1, Delta: 0.1},
		Clients:     clients,
		MaxCommands: 500,
		Omit:        &smr.OmitOptions{Procs: []sim.ProcID{4}, SendProb: 0.3, Seed: 17},
	})
	if res.Omissive[4] == 0 {
		t.Errorf("omissive ledger %v records nothing for the faulty replica", res.Omissive)
	}
	for id := range res.Omissive {
		if id != 4 {
			t.Errorf("replica %d registered omissive rounds without being configured faulty", id)
		}
	}
}

// TestServeOmissiveCoordinatorDetected pins the service's safety net: CRW is
// a crash-fault protocol, and a send-omissive *coordinator* breaks its
// agreement (it perceives a failure-free round and decides alone — the
// omission counterexample of internal/sim in service form). The service must
// detect the divergence, stop, and report the slot — deterministically.
func TestServeOmissiveCoordinatorDetected(t *testing.T) {
	build := func() smr.ServeOptions {
		clients, err := workload.NewClosed(5, 0, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		return smr.ServeOptions{
			N: 5, RotateLeader: true,
			Latency:     timed.Fixed{D: 1, Delta: 0.1},
			Clients:     clients,
			MaxCommands: 500,
			Omit:        &smr.OmitOptions{Procs: []sim.ProcID{1}, SendProb: 0.3, Seed: 17},
		}
	}
	_, err := smr.Serve(build())
	if err == nil || !strings.Contains(err.Error(), "divergent") {
		t.Fatalf("omissive coordinator not caught as divergence: %v", err)
	}
	_, again := smr.Serve(build())
	if again == nil || again.Error() != err.Error() {
		t.Errorf("divergence report nondeterministic: %q vs %q", err, again)
	}
}

// TestServeDeterministicReplay pins bit-identical replay: two invocations
// with identical options and seeds must produce deeply equal reports —
// including latency percentiles, recovery times and the message ledger.
func TestServeDeterministicReplay(t *testing.T) {
	build := func() smr.ServeOptions {
		return smr.ServeOptions{
			N: 6, RotateLeader: true,
			Latency:     timed.Jitter{D: 1, Delta: 0.1, Floor: 0.4, Spread: 0.5, Seed: 3},
			Arrivals:    openPoisson(t, 4, 99),
			MaxCommands: 400,
			CrashAt:     map[sim.ProcID]float64{2: 30},
			Omit:        &smr.OmitOptions{Procs: []sim.ProcID{5}, SendProb: 0.15, Seed: 8},
		}
	}
	a := mustServe(t, build())
	b := mustServe(t, build())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical service runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	c := build()
	c.Arrivals = openPoisson(t, 4, 100)
	other := mustServe(t, c)
	if reflect.DeepEqual(a.Latency, other.Latency) {
		t.Error("different workload seeds produced identical latency distributions")
	}
}

// TestServeThroughputTarget pins the acceptance bar: on the timed engine
// with a gigabit-Ethernet latency profile, an n=8 service sustains at least
// one million committed commands per simulated hour.
func TestServeThroughputTarget(t *testing.T) {
	res := mustServe(t, smr.ServeOptions{
		N: 8, RotateLeader: true,
		Latency:     timed.Profile{P: lan.Ethernet1G, Bits: 64},
		Arrivals:    openPoisson(t, 500_000, 1), // 500k commands per simulated second
		MaxCommands: 20_000,
	})
	if got := res.PerHour(); got < 1e6 {
		t.Errorf("sustained %.0f commands per simulated hour, want >= 1e6", got)
	}
	if res.Latency.P50 <= 0 || res.Latency.P99 < res.Latency.P50 || res.Latency.Max < res.Latency.P999 {
		t.Errorf("latency stats inconsistent: %+v", res.Latency)
	}
}

// TestServeOpenLoopIdle pins open-loop behavior across idle gaps: with
// arrivals far slower than the round duration every command rides its own
// slot and commit latency is exactly one instance duration.
func TestServeOpenLoopIdle(t *testing.T) {
	o, err := workload.NewOpen(workload.Fixed{Rate: 0.1}, 0) // one arrival per 10 time units
	if err != nil {
		t.Fatal(err)
	}
	res := mustServe(t, smr.ServeOptions{
		N: 3, RotateLeader: true,
		Latency:     timed.Fixed{D: 1, Delta: 0.1},
		Arrivals:    o,
		MaxCommands: 20,
	})
	if res.Slots != 20 {
		t.Errorf("slots = %d, want 20 (one command per slot)", res.Slots)
	}
	for _, p := range []float64{res.Latency.P50, res.Latency.P99, res.Latency.Max} {
		if math.Abs(p-1.1) > 1e-9 {
			t.Errorf("idle-service latency %g, want exactly one instance duration 1.1", p)
		}
	}
}

// TestServeBatchLimit bounds the per-slot batch.
func TestServeBatchLimit(t *testing.T) {
	clients, err := workload.NewClosed(10, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := mustServe(t, smr.ServeOptions{
		N: 3, RotateLeader: true,
		Latency:     timed.Fixed{D: 1, Delta: 0.1},
		Clients:     clients,
		MaxCommands: 100,
		BatchLimit:  4,
	})
	if res.Slots < 25 {
		t.Errorf("slots = %d; a batch limit of 4 needs >= 25 slots for 100 commands", res.Slots)
	}
}

// TestServeDurationStop stops the service on the simulated clock.
func TestServeDurationStop(t *testing.T) {
	res := mustServe(t, smr.ServeOptions{
		N: 3, RotateLeader: true,
		Latency:  timed.Fixed{D: 1, Delta: 0.1},
		Arrivals: openPoisson(t, 50, 2),
		Duration: 20,
	})
	if res.LastCommit > 20+2.2+1e-9 {
		t.Errorf("last commit at %g, want within duration 20 plus one instance", res.LastCommit)
	}
	if res.Commands == 0 {
		t.Error("duration-bounded run committed nothing")
	}
}

// TestServeRoundEngine runs the service on the deterministic round engine,
// where the clock ticks one unit per round.
func TestServeRoundEngine(t *testing.T) {
	clients, err := workload.NewClosed(4, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := mustServe(t, smr.ServeOptions{
		N: 4, RotateLeader: true,
		Engine:      harness.KindDeterministic,
		Clients:     clients,
		MaxCommands: 40,
	})
	if res.Slots != 10 {
		t.Errorf("slots = %d, want 10", res.Slots)
	}
	if math.Abs(res.LastCommit-10) > 1e-9 {
		t.Errorf("round-engine last commit at %g, want 10 (one unit per round)", res.LastCommit)
	}
}

// TestServeValidation rejects unusable configurations with telling errors.
func TestServeValidation(t *testing.T) {
	open := func() *workload.Open { return openPoisson(t, 10, 0) }
	closed, err := workload.NewClosed(2, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts smr.ServeOptions
		want string
	}{
		{"no replicas", smr.ServeOptions{Arrivals: open(), MaxCommands: 1}, "replica"},
		{"no workload", smr.ServeOptions{N: 3, MaxCommands: 1}, "workload"},
		{"both workloads", smr.ServeOptions{N: 3, Arrivals: open(), Clients: closed, MaxCommands: 1}, "workload"},
		{"no stop", smr.ServeOptions{N: 3, Arrivals: open()}, "stop condition"},
		{"bad crash id", smr.ServeOptions{N: 3, Arrivals: open(), MaxCommands: 1,
			CrashAt: map[sim.ProcID]float64{7: 1}}, "nonexistent"},
		{"negative crash time", smr.ServeOptions{N: 3, Arrivals: open(), MaxCommands: 1,
			CrashAt: map[sim.ProcID]float64{1: -2}}, "finite"},
		{"kills everyone", smr.ServeOptions{N: 2, Arrivals: open(), MaxCommands: 1,
			CrashAt: map[sim.ProcID]float64{1: 0, 2: 0}}, "survivor"},
		{"bad omit proc", smr.ServeOptions{N: 3, Arrivals: open(), MaxCommands: 1,
			Omit: &smr.OmitOptions{Procs: []sim.ProcID{9}, SendProb: 0.1}}, "does not exist"},
		{"omit prob out of range", smr.ServeOptions{N: 3, Arrivals: open(), MaxCommands: 1,
			Omit: &smr.OmitOptions{Procs: []sim.ProcID{1}, SendProb: 1.5}}, "out of [0, 1]"},
		{"omit prob NaN", smr.ServeOptions{N: 3, Arrivals: open(), MaxCommands: 1,
			Omit: &smr.OmitOptions{Procs: []sim.ProcID{1}, RecvProb: math.NaN()}}, "out of [0, 1]"},
		{"unknown protocol", smr.ServeOptions{N: 3, Arrivals: open(), MaxCommands: 1,
			Protocol: "floodset"}, `unknown protocol "floodset"`},
		{"unknown engine", smr.ServeOptions{N: 3, Arrivals: open(), MaxCommands: 1,
			Engine: harness.Kind("warp")}, "unknown engine"},
		{"latency on round engine", smr.ServeOptions{N: 3, Arrivals: open(), MaxCommands: 1,
			Engine: harness.KindDeterministic, Latency: timed.Fixed{D: 1}}, "timed capability"},
	}
	for _, tc := range cases {
		_, err := smr.Serve(tc.opts)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestServeSimultaneousCrashesDeterministic pins the order in which the
// crashes due at one launch apply: chronological, ties broken by replica id.
// Replicas 1 and 2 die at the same time while 1 leads; applied in id order,
// 1's crash hands the lead to 2, whose crash is a leader crash too, so the
// session records two recoveries. Walking the schedule map instead let its
// iteration order decide, and sometimes reported one.
func TestServeSimultaneousCrashesDeterministic(t *testing.T) {
	run := func() *smr.ServeResult {
		return mustServe(t, smr.ServeOptions{
			N: 8, RotateLeader: true,
			Latency:     timed.Profile{P: lan.Ethernet1G, Bits: 64},
			Arrivals:    openPoisson(t, 100e3, 1),
			MaxCommands: 2000,
			CrashAt:     map[sim.ProcID]float64{1: 0.005, 2: 0.005},
		})
	}
	first := run()
	if got := len(first.Recoveries); got != 2 {
		t.Fatalf("%d recoveries, want 2 (%v)", got, first.Recoveries)
	}
	for i, want := range []sim.ProcID{1, 2} {
		if r := first.Recoveries[i]; r.Replica != want {
			t.Errorf("recovery %d from replica %d, want %d", i, r.Replica, want)
		}
	}
	for i := 1; i < 100; i++ {
		if res := run(); !reflect.DeepEqual(res, first) {
			t.Fatalf("run %d differs from run 0:\n%+v\n%+v", i, res, first)
		}
	}
}

// TestServeValidationNamesLowestReplica pins that a crash schedule with
// several bad entries is reported by its lowest replica id, whatever order
// the schedule map iterates in.
func TestServeValidationNamesLowestReplica(t *testing.T) {
	for _, tc := range []struct {
		crashAt map[sim.ProcID]float64
		want    string
	}{
		{map[sim.ProcID]float64{9: 1, 0: 1, 7: 1, 1: 1}, "nonexistent replica 0 "},
		{map[sim.ProcID]float64{4: math.NaN(), 3: -1, 2: math.Inf(1), 1: 0}, "of replica 2 "},
	} {
		for i := 0; i < 50; i++ {
			_, err := smr.Serve(smr.ServeOptions{N: 5, Arrivals: openPoisson(t, 10, 0), MaxCommands: 1,
				CrashAt: tc.crashAt})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not name %q", err, tc.want)
			}
		}
	}
}
