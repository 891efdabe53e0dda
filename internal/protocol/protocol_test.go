package protocol_test

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/simulate"
)

// TestResolve pins the one validation and t-default rule every caller
// shares.
func TestResolve(t *testing.T) {
	for _, c := range []struct {
		spec  protocol.Spec
		proto string
		t     int
		err   string
	}{
		{protocol.Spec{N: 4}, protocol.CRW, 3, ""},
		{protocol.Spec{Protocol: protocol.EarlyStop, N: 4}, protocol.EarlyStop, 3, ""},
		{protocol.Spec{Protocol: protocol.FloodSet, N: 4, T: 4}, protocol.FloodSet, 3, ""},
		{protocol.Spec{Protocol: protocol.FloodSet, N: 4, T: -2}, protocol.FloodSet, 3, ""},
		{protocol.Spec{Protocol: protocol.EarlyStop, N: 8, T: 3}, protocol.EarlyStop, 3, ""},
		{protocol.Spec{N: 1}, protocol.CRW, 0, ""},
		{protocol.Spec{N: 0}, "", 0, "N must be at least 1"},
		{protocol.Spec{Protocol: "paxos", N: 4}, "", 0, `unknown protocol "paxos"`},
		{protocol.Spec{Protocol: protocol.EarlyStop, N: 4, CommitAsData: true}, "", 0, "the ablations apply to the CRW protocol only"},
		{protocol.Spec{Protocol: protocol.FloodSet, N: 4, OrderAscending: true}, "", 0, "the ablations apply to the CRW protocol only"},
		{protocol.Spec{Protocol: protocol.EarlyStop, N: 4, SimulateOnClassic: true}, "", 0, "SimulateOnClassic applies to the CRW protocol only"},
	} {
		got, err := c.spec.Resolve()
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%+v: err %v, want %q", c.spec, err, c.err)
			}
			continue
		}
		if err != nil || got.Protocol != c.proto || got.T != c.t {
			t.Errorf("%+v: resolved to %q t=%d (err %v), want %q t=%d", c.spec, got.Protocol, got.T, err, c.proto, c.t)
		}
	}
}

// TestBuildAndBound runs each protocol's system under coordinator crashes
// through the round engine and holds it to the spec's own round bound.
func TestBuildAndBound(t *testing.T) {
	for _, c := range []struct {
		spec    protocol.Spec
		model   sim.Model
		horizon sim.Round
		bounds  [3]sim.Round // bound at f = 0, 1, 2
	}{
		{protocol.Spec{N: 5}, sim.ModelExtended, 7, [3]sim.Round{1, 2, 3}},
		{protocol.Spec{N: 5, CommitAsData: true}, sim.ModelClassic, 7, [3]sim.Round{1, 2, 3}},
		{protocol.Spec{N: 5, SimulateOnClassic: true}, sim.ModelClassic, 35, [3]sim.Round{1, 2, 3}},
		{protocol.Spec{Protocol: protocol.EarlyStop, N: 5, T: 3}, sim.ModelClassic, 5, [3]sim.Round{2, 3, 4}},
		{protocol.Spec{Protocol: protocol.FloodSet, N: 5, T: 3}, sim.ModelClassic, 5, [3]sim.Round{4, 4, 4}},
	} {
		spec, err := c.spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		bound := spec.Bound()
		for f := range c.bounds {
			if got := bound(f); got != c.bounds[f] {
				t.Errorf("%+v: bound(%d) = %d, want %d", c.spec, f, got, c.bounds[f])
			}
		}
		props := []sim.Value{10, 11, 12, 13, 14}
		procs, model, horizon := spec.Build(props)
		if len(procs) != 5 || model != c.model || horizon != c.horizon {
			t.Errorf("%+v: built %d processes, model %v, horizon %d; want 5, %v, %d",
				c.spec, len(procs), model, horizon, c.model, c.horizon)
			continue
		}
		var adv sim.Adversary = adversary.CoordinatorKiller{F: 2}
		if spec.SimulateOnClassic {
			// The coordinator of macro round r crashes in its data micro round.
			adv = adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{1: {Round: 1}, 2: {Round: 6}})
		}
		eng, err := sim.NewEngine(sim.Config{Model: model, Horizon: horizon}, procs, adv)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		if err := check.Consensus(props, res); err != nil {
			t.Errorf("%+v: %v", c.spec, err)
		}
		if spec.SimulateOnClassic {
			// The bound counts macro rounds: convert the micro decide rounds.
			for i := range res.Procs {
				if r := res.Procs[i].DecideRound; r != 0 {
					res.Procs[i].DecideRound = simulate.MacroRound(r, spec.N)
				}
			}
		}
		if err := check.RoundBound(res, bound); err != nil {
			t.Errorf("%+v: %v", c.spec, err)
		}
	}
}

// TestExplore checks the explorer against the E5 figures: n=4, t=2 has 151
// executions, all within f+1, on the sequential and the parallel explorer;
// the ascending ablation breaks the bound.
func TestExplore(t *testing.T) {
	spec := protocol.Spec{N: 4}
	for _, parallel := range []bool{false, true} {
		stats, err := spec.Explore(2, 0, parallel, check.ExploreOpts{Budget: 1_000_000, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Executions != 151 || len(stats.Counterexamples) != 0 || stats.MaxDecideRound != 3 {
			t.Errorf("parallel=%t: %d executions, %d counterexamples, max decide %d; want 151, 0, 3",
				parallel, stats.Executions, len(stats.Counterexamples), stats.MaxDecideRound)
		}
	}
	asc := protocol.Spec{N: 4, OrderAscending: true}
	stats, err := asc.Explore(1, 0, false, check.ExploreOpts{Budget: 1_000_000, MaxCounterexamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Counterexamples) == 0 || !strings.Contains(stats.Counterexamples[0].Err.Error(), "round bound") {
		t.Errorf("ascending ablation: counterexamples %v, want a round-bound violation", stats.Counterexamples)
	}
}
