package protocol_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/simulate"
)

// TestResolve pins the one validation and t-default rule every caller
// shares: only t = 0 and bits = 0 select defaults; an out-of-range t or a
// negative width is an error, never silently replaced.
func TestResolve(t *testing.T) {
	for _, c := range []struct {
		spec  protocol.Spec
		proto string
		t     int
		err   string
	}{
		{protocol.Spec{N: 4}, protocol.CRW, 3, ""},
		{protocol.Spec{Protocol: protocol.EarlyStop, N: 4}, protocol.EarlyStop, 3, ""},
		{protocol.Spec{Protocol: protocol.FloodSet, N: 4, T: 4}, "", 0, "T=4 is outside"},
		{protocol.Spec{Protocol: protocol.FloodSet, N: 4, T: 50}, "", 0, "T=50 is outside"},
		{protocol.Spec{Protocol: protocol.FloodSet, N: 4, T: -2}, "", 0, "T=-2 is outside"},
		{protocol.Spec{Protocol: protocol.FloodSet, N: 4, T: 3}, protocol.FloodSet, 3, ""},
		{protocol.Spec{N: 4, Bits: -3}, "", 0, "Bits=-3 is negative"},
		{protocol.Spec{N: 4, Bits: 8}, protocol.CRW, 3, ""},
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
	var sys protocol.Systems
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
		procs, model, horizon := spec.Build(&sys, props)
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

// TestExplore holds the explorer's per-worker factories to a reference that
// builds a fresh system, proposal vector and adversary for every execution:
// on the E5 cells with n ≤ 5, the classic baselines, both CRW ablations and
// an omission cell, the sequential and the 2-worker parallel Spec.Explore
// give the reference's statistics, counterexample scripts and verdicts.
func TestExplore(t *testing.T) {
	for _, c := range []struct {
		spec                           protocol.Spec
		crashes, omissions, executions int
		violation                      string // named by the first verdict; "" = none
	}{
		{protocol.Spec{N: 3}, 1, 0, 10, ""},
		{protocol.Spec{N: 3}, 2, 0, 54, ""},
		{protocol.Spec{N: 4}, 1, 0, 16, ""},
		{protocol.Spec{N: 4}, 2, 0, 151, ""},
		{protocol.Spec{N: 4}, 3, 0, 856, ""},
		{protocol.Spec{N: 5}, 1, 0, 26, ""},
		{protocol.Spec{N: 5}, 2, 0, 410, ""},
		{protocol.Spec{N: 5}, 3, 0, 4086, ""},
		{protocol.Spec{N: 5}, 4, 0, 24959, ""},
		{protocol.Spec{Protocol: protocol.EarlyStop, N: 4, T: 2}, 2, 0, 0, ""},
		{protocol.Spec{Protocol: protocol.FloodSet, N: 3, T: 2}, 2, 0, 0, ""},
		{protocol.Spec{N: 4, OrderAscending: true}, 1, 0, 0, "round bound violated"},
		{protocol.Spec{N: 4, CommitAsData: true}, 3, 0, 0, "agreement violated"},
		{protocol.Spec{N: 3}, 1, 1, 0, "agreement violated"},
	} {
		spec, err := c.spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		bound := spec.Bound()
		if c.omissions > 0 {
			bound = nil
		}
		opts := check.ExploreOpts{Budget: 1_000_000, MaxCounterexamples: 1 << 20, Workers: 2}
		want, err := check.Explore(freshExplorer(spec, c.crashes, c.omissions), protocol.Validator(bound), opts)
		if err != nil {
			t.Fatal(err)
		}
		if c.executions > 0 && want.Executions != c.executions {
			t.Errorf("%+v crashes=%d: %d executions, want %d", c.spec, c.crashes, want.Executions, c.executions)
		}
		first := ""
		if len(want.Counterexamples) > 0 {
			first = want.Counterexamples[0].Err.Error()
		}
		if (first == "") != (c.violation == "") || !strings.Contains(first, c.violation) {
			t.Errorf("%+v crashes=%d omissions=%d: first verdict %q, want one naming %q",
				c.spec, c.crashes, c.omissions, first, c.violation)
		}
		for _, parallel := range []bool{false, true} {
			got, err := spec.Explore(c.crashes, c.omissions, parallel, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := statsDiff(got, want); d != "" {
				t.Errorf("%+v crashes=%d omissions=%d parallel=%t: %s", c.spec, c.crashes, c.omissions, parallel, d)
			}
		}
	}
}

// freshExplorer is the reference for Spec.Explorer: every execution is built
// in a new Systems, proposal vector and adversary.
func freshExplorer(spec protocol.Spec, crashes, omissions int) func() check.RunFactory {
	return func() check.RunFactory {
		return func(ch adversary.Chooser) check.Execution {
			var sys protocol.Systems
			props := make([]sim.Value, spec.N)
			for i := range props {
				props[i] = sim.Value(100 + i)
			}
			var adv sim.Adversary = adversary.NewFromChooser(ch, crashes, sim.Round(spec.N))
			if omissions > 0 {
				adv = adversary.NewFromChooserWithOmissions(ch, crashes, sim.Round(spec.N), omissions, spec.N)
			}
			procs, model, horizon := spec.Build(&sys, props)
			return check.Execution{Procs: procs, Adv: adv, Cfg: sim.Config{Model: model, Horizon: horizon}, Proposals: props}
		}
	}
}

// statsDiff names the first difference between two explorations' statistics,
// worst executions, counterexample scripts and verdicts, or returns "".
func statsDiff(got, want check.Stats) string {
	if got.Executions != want.Executions || got.MaxRounds != want.MaxRounds ||
		got.MaxDecideRound != want.MaxDecideRound || got.MaxFaults != want.MaxFaults ||
		!reflect.DeepEqual(got.Worst, want.Worst) || len(got.Counterexamples) != len(want.Counterexamples) {
		return fmt.Sprintf("stats %+v, want %+v", got, want)
	}
	for i, ce := range got.Counterexamples {
		w := want.Counterexamples[i]
		if !reflect.DeepEqual(ce.Script, w.Script) || ce.Err.Error() != w.Err.Error() {
			return fmt.Sprintf("counterexample %d: %v %q, want %v %q", i, ce.Script, ce.Err, w.Script, w.Err)
		}
	}
	return ""
}

// TestSpecBuildReuseMatchesFresh walks one Systems through n = 8, 64, 8, 32,
// 64, 16, building every protocol variant at each size in turn, so each
// system grows, shrinks below what it holds and is rebuilt after another
// protocol's run. Each build must equal a fresh one — processes, model and
// horizon — and its run under a crash script on the round engine must give
// the fresh build's result. Proposals differ from build to build, so a
// value an earlier instance left behind would show.
func TestSpecBuildReuseMatchesFresh(t *testing.T) {
	variants := []protocol.Spec{
		{},
		{OrderAscending: true},
		{CommitAsData: true, Bits: 16},
		{SimulateOnClassic: true},
		{Protocol: protocol.EarlyStop},
		{Protocol: protocol.FloodSet, Bits: 8},
	}
	var sys protocol.Systems
	for i, n := range []int{8, 64, 8, 32, 64, 16} {
		for j, v := range variants {
			v.N, v.T = n, n/4+j%2
			spec, err := v.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			props := make([]sim.Value, n)
			for k := range props {
				props[k] = sim.Value(1000*(i*len(variants)+j) + n - k)
			}
			// p_1..p_f crash in their own rounds, alternately leaking part of
			// the data and all of the data with part of the control
			// sequence; simulated runs crash in the coordinators' data micro
			// rounds.
			plans := map[sim.ProcID]adversary.CrashPlan{}
			for k := 1; k <= 1+(i+j)%3; k++ {
				r := sim.Round(k)
				if spec.SimulateOnClassic {
					r = sim.Round(simulate.Stride(n)*(k-1) + 1)
				}
				plans[sim.ProcID(k)] = adversary.CrashPlan{Round: r, DataMask: []bool{false, true, false, true}}
				if k%2 == 0 {
					plans[sim.ProcID(k)] = adversary.CrashPlan{Round: r, DeliverAllData: true, CtrlPrefix: k}
				}
			}
			adv := adversary.NewScript(plans)

			var fresh protocol.Systems
			wantProcs, wantModel, wantHorizon := spec.Build(&fresh, props)
			procs, model, horizon := spec.Build(&sys, props)
			if model != wantModel || horizon != wantHorizon || !reflect.DeepEqual(procs, wantProcs) {
				t.Fatalf("n=%d %+v: reused build differs from a fresh one", n, spec)
			}
			want, wantErr := runOnce(t, wantModel, wantHorizon, wantProcs, adv)
			got, err := runOnce(t, model, horizon, procs, adv)
			if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("n=%d %+v: reused run differs from a fresh one:\n%+v (%v)\n%+v (%v)", n, spec, got, err, want, wantErr)
			}
			if wantErr != nil || want.Faults() == 0 || want.MaxDecideRound() == 0 {
				t.Fatalf("n=%d %+v: error %v, %d crashes, latest decision in round %d; the run leaves too little state to compare",
					n, spec, wantErr, want.Faults(), want.MaxDecideRound())
			}
		}
	}
}

// runOnce runs procs on a new round engine.
func runOnce(t *testing.T, model sim.Model, horizon sim.Round, procs []sim.Process, adv sim.Adversary) (*sim.Result, error) {
	t.Helper()
	eng, err := sim.NewEngine(sim.Config{Model: model, Horizon: horizon}, procs, adv)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Run()
}
