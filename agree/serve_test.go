package agree_test

import (
	"math"
	"strings"
	"testing"

	"repro/agree"
)

// TestServeFailureFree pins the service's shape on a clean run: a saturated
// closed-loop log on the timed engine commits one slot per round duration,
// every slot on the one cached engine.
func TestServeFailureFree(t *testing.T) {
	rep, err := agree.Serve(agree.ServeConfig{
		N: 4, RotateLeader: true,
		Latency:     agree.FixedLatency(1, 0.1),
		Workload:    agree.ClosedClients(4, 0, false, 0),
		MaxCommands: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Commands != 100 || rep.Slots != 25 {
		t.Errorf("commands/slots = %d/%d, want 100/25", rep.Commands, rep.Slots)
	}
	if rep.TotalRounds != rep.Slots {
		t.Errorf("rounds = %d over %d slots, want one round per failure-free extended slot", rep.TotalRounds, rep.Slots)
	}
	if rep.EnginesBuilt != 1 || rep.EngineReuses != rep.Slots-1 {
		t.Errorf("engines built/reused = %d/%d, want 1/%d", rep.EnginesBuilt, rep.EngineReuses, rep.Slots-1)
	}
	if math.Abs(rep.LatencyP50-1.1) > 1e-9 {
		t.Errorf("p50 latency = %g, want 1.1 (one instance duration)", rep.LatencyP50)
	}
}

// TestServeMidStreamCrashRecovery pins the ISSUE's acceptance scenario
// through the public API: a leader crash mid-stream recovers in exactly the
// analytic one-round bound D+δ with RotateLeader, and in two rounds without
// it (the dead static coordinator wastes the recovery instance's first
// round).
func TestServeMidStreamCrashRecovery(t *testing.T) {
	const roundDur = 1.1
	run := func(rotate bool) *agree.ServeReport {
		t.Helper()
		rep, err := agree.Serve(agree.ServeConfig{
			N: 4, RotateLeader: rotate,
			Latency:     agree.FixedLatency(1, 0.1),
			Workload:    agree.ClosedClients(4, 0, false, 0),
			MaxCommands: 120,
			CrashAt:     map[int]float64{1: 5 * roundDur},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rotated := run(true)
	if len(rotated.Recoveries) != 1 {
		t.Fatalf("recoveries = %v, want exactly one", rotated.Recoveries)
	}
	if got := rotated.Recoveries[0].Time(); math.Abs(got-roundDur) > 1e-9 {
		t.Errorf("rotated recovery = %g, want the one-round analytic bound %g", got, roundDur)
	}
	static := run(false)
	if len(static.Recoveries) != 1 {
		t.Fatalf("static recoveries = %v, want exactly one", static.Recoveries)
	}
	if got := static.Recoveries[0].Time(); math.Abs(got-2*roundDur) > 1e-9 {
		t.Errorf("static recovery = %g, want two round durations %g", got, 2*roundDur)
	}
	// The rotated log also beats the static one on post-crash throughput.
	if rotated.TotalRounds >= static.TotalRounds {
		t.Errorf("rotated log took %d rounds vs static %d, want fewer", rotated.TotalRounds, static.TotalRounds)
	}
}

// TestServeThroughputAcceptance pins the acceptance bar: at n=8 on the timed
// engine with gigabit-Ethernet latencies the service sustains at least one
// million commands per simulated hour, with the full latency distribution
// reported.
func TestServeThroughputAcceptance(t *testing.T) {
	rep, err := agree.Serve(agree.ServeConfig{
		N: 8, RotateLeader: true,
		Latency:     agree.ProfileLatency("1g"),
		Workload:    agree.PoissonArrivals(500_000, 1),
		MaxCommands: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommandsPerHour < 1e6 {
		t.Errorf("sustained %.0f commands per simulated hour, want >= 1e6", rep.CommandsPerHour)
	}
	if rep.LatencyP50 <= 0 || rep.LatencyP99 < rep.LatencyP50 ||
		rep.LatencyP999 < rep.LatencyP99 || rep.LatencyMax < rep.LatencyP999 {
		t.Errorf("latency distribution inconsistent: p50=%g p99=%g p999=%g max=%g",
			rep.LatencyP50, rep.LatencyP99, rep.LatencyP999, rep.LatencyMax)
	}
}

// TestServeBurstyWorkload drives the multi-period schedule end to end: the
// burst phases must push tail latency above the median.
func TestServeBurstyWorkload(t *testing.T) {
	rep, err := agree.Serve(agree.ServeConfig{
		N: 4, RotateLeader: true,
		Latency:  agree.FixedLatency(1, 0.1),
		Workload: agree.BurstyArrivals(0.2, 50, 30, 5, 3),
		Duration: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Commands == 0 {
		t.Fatal("bursty run committed nothing")
	}
	if rep.LatencyP99 <= rep.LatencyP50 {
		t.Errorf("p99 = %g <= p50 = %g; bursts should build a queue and stretch the tail",
			rep.LatencyP99, rep.LatencyP50)
	}
}

// TestServeDeterminismLaw checks the byte-identical replay law over a
// configuration exercising every seeded subsystem at once: Poisson
// arrivals, latency jitter with timing faults, a mid-stream crash, and
// omission injection.
func TestServeDeterminismLaw(t *testing.T) {
	err := agree.VerifyServeDeterminism(agree.ServeConfig{
		N: 6, RotateLeader: true,
		Latency:     agree.JitterLatency(3, 1, 0.1, 0.4, 0.5),
		Workload:    agree.PoissonArrivals(4, 99),
		MaxCommands: 300,
		CrashAt:     map[int]float64{2: 30},
		Omissions:   &agree.ServeOmissions{Procs: []int{5}, SendProb: 0.15, Seed: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServeEarlyStopService runs the classic baseline as the per-slot
// protocol: every failure-free slot costs two rounds (min(f+2, t+1) with
// f=0), so the same workload doubles its rounds against CRW.
func TestServeEarlyStopService(t *testing.T) {
	rep, err := agree.Serve(agree.ServeConfig{
		N: 4, Protocol: agree.ProtocolEarlyStop, RotateLeader: true,
		Latency:     agree.FixedLatency(1, 0.1),
		Workload:    agree.ClosedClients(4, 0, false, 0),
		MaxCommands: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRounds != 2*rep.Slots {
		t.Errorf("earlystop service: %d rounds over %d slots, want 2 per slot", rep.TotalRounds, rep.Slots)
	}
}

// TestServeConfigValidation rejects the unusable configurations with
// telling errors.
func TestServeConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  agree.ServeConfig
		want string
	}{
		{"floodset unsupported", agree.ServeConfig{N: 4, Protocol: agree.ProtocolFloodSet,
			Workload: agree.FixedArrivals(1, 0), MaxCommands: 1}, "not"},
		{"no workload", agree.ServeConfig{N: 4, MaxCommands: 1}, "workload"},
		{"bad rate", agree.ServeConfig{N: 4, Workload: agree.FixedArrivals(0, 0), MaxCommands: 1}, "rate"},
		{"infinite poisson rate", agree.ServeConfig{N: 4, Workload: agree.PoissonArrivals(math.Inf(1), 0),
			BatchLimit: 32, MaxCommands: 10}, "poisson arrival rate +Inf must be finite"},
		{"infinite burst rate", agree.ServeConfig{N: 4, Workload: agree.BurstyArrivals(1, math.Inf(1), 1, 1, 0),
			MaxCommands: 10}, "phase 1 rate +Inf must be finite"},
		{"no stop", agree.ServeConfig{N: 4, Workload: agree.FixedArrivals(1, 0)}, "stop condition"},
		{"bad latency", agree.ServeConfig{N: 4, Workload: agree.FixedArrivals(1, 0), MaxCommands: 1,
			Latency: agree.FixedLatency(-1, 0)}, "positive"},
		{"latency needs timed engine", agree.ServeConfig{N: 4, Engine: agree.EngineDeterministic,
			Workload: agree.FixedArrivals(1, 0), MaxCommands: 1,
			Latency: agree.FixedLatency(1, 0.1)}, "timed capability"},
	}
	for _, tc := range cases {
		_, err := agree.Serve(tc.cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
