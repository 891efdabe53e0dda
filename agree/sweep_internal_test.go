package agree

import (
	"strings"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// testResult returns a small consistent engine result for diff tests: p1
// decides, p2 crashes in round 1, p3 decides after one omissive round.
func testResult() *sim.Result {
	return &sim.Result{
		Rounds: 3,
		Procs: []sim.Outcome{
			{Value: 7, DecideRound: 3},
			{CrashRound: 1},
			{Value: 7, DecideRound: 2, OmissiveRounds: 1},
		},
		Counters: metrics.Counters{DataMsgs: 6, DataBits: 384, CtrlMsgs: 2, CtrlBits: 2, Rounds: 3},
		Ledger:   metrics.Ledger{DeliveredData: 5, DeliveredCtrl: 2, RecvOmitData: 1},
	}
}

// TestDiffResults exercises the cross-check comparator field by field:
// equal results produce no diff, each semantic divergence is caught and
// named, and the continuous-time price tag is not compared.
func TestDiffResults(t *testing.T) {
	if d := diffResults(testResult(), testResult()); d != "" {
		t.Errorf("identical results diff: %s", d)
	}
	cases := []struct {
		name    string
		mutate  func(*sim.Result)
		mention string
	}{
		{"rounds", func(r *sim.Result) { r.Rounds = 4 }, "rounds 3 vs 4"},
		{"decision value", func(r *sim.Result) { r.Procs[0].Value = 9 }, "p1 outcome"},
		{"decider set", func(r *sim.Result) { r.Procs[2] = sim.Outcome{OmissiveRounds: 1} }, "p3 outcome"},
		{"decide round", func(r *sim.Result) { r.Procs[2].DecideRound = 3 }, "p3 outcome"},
		{"crash set", func(r *sim.Result) { r.Procs[1].CrashRound = 0 }, "p2 outcome"},
		{"crash round", func(r *sim.Result) { r.Procs[1].CrashRound = 2 }, "p2 outcome"},
		{"omissive rounds", func(r *sim.Result) { r.Procs[2].OmissiveRounds = 2 }, "p3 outcome"},
		{"process count", func(r *sim.Result) { r.Procs = r.Procs[:2] }, "3 vs 2 processes"},
		{"counters", func(r *sim.Result) { r.Counters.DataMsgs = 5 }, "counters"},
		{"ledger", func(r *sim.Result) { r.Ledger.RecvOmitData = 0 }, "ledger"},
	}
	for _, c := range cases {
		mutated := testResult()
		c.mutate(mutated)
		d := diffResults(testResult(), mutated)
		if d == "" {
			t.Errorf("%s: divergence not detected", c.name)
			continue
		}
		if !strings.Contains(d, c.mention) {
			t.Errorf("%s: diff %q does not mention %q", c.name, d, c.mention)
		}
	}
	priced := testResult()
	priced.SimTime = 12.5
	if d := diffResults(priced, testResult()); d != "" {
		t.Errorf("SimTime diffed: %s", d)
	}
}

// plantDivergence alters p3's outcome in a primary result, as an engine
// disagreeing with every other one would.
func plantDivergence(res *sim.Result) {
	res.Procs[2].DecideRound++
}

// TestCrossCheckPlantedDivergenceSweep hands the shared cross-check a Sweep
// configuration's primary result with one outcome altered: every other
// engine disagrees, and the divergence names the process.
func TestCrossCheckPlantedDivergenceSweep(t *testing.T) {
	cache := harness.NewCache()
	defer cache.Close()
	var w worker
	cfg := Config{N: 5, Faults: CoordinatorCrashes(2)}
	_, res, err := runConfig(cfg, cache, &w, nil)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := crossCheckConfig(cfg, res, cache, &w)
	if err != nil || len(checked) != len(harness.Kinds())-1 {
		t.Fatalf("faithful primary: checked %v, err %v", checked, err)
	}
	plantDivergence(res)
	checked, err = crossCheckConfig(cfg, res, cache, &w)
	if err == nil || !strings.Contains(err.Error(), "crosscheck divergence") || !strings.Contains(err.Error(), "p3 outcome") {
		t.Fatalf("planted divergence: err %v, want a crosscheck divergence naming p3", err)
	}
	if len(checked) != 0 {
		t.Errorf("planted divergence: engines %v reported as agreeing", checked)
	}
}

// TestCrossCheckPlantedDivergenceFuzz does the same for a fuzz finding's
// script replayed through the campaign factory.
func TestCrossCheckPlantedDivergenceFuzz(t *testing.T) {
	cache := harness.NewCache()
	defer cache.Close()
	spec, err := protocol.Spec{N: 4}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	script, err := fuzz.Parse("p1@r1:100/0")
	if err != nil {
		t.Fatal(err)
	}
	var sys protocol.Systems
	job := scriptJob(fuzzFactory(spec, &sys, LatencySpec{}), script)
	eng, err := cache.Get(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	primary, runErr := eng.Run(job(harness.KindDeterministic))
	if runErr != nil {
		t.Fatal(runErr)
	}
	plantDivergence(primary)
	checked, runs, err := crossCheck(cache, harness.KindDeterministic, primary, runErr, "fuzz crosscheck",
		func() string { return " replaying " + script.String() }, job)
	if err == nil || !strings.Contains(err.Error(), "fuzz crosscheck divergence") || !strings.Contains(err.Error(), "p3 outcome") {
		t.Fatalf("planted divergence: err %v, want a fuzz crosscheck divergence naming p3", err)
	}
	if len(checked) != 0 || runs != 1 {
		t.Errorf("planted divergence: engines %v agreed in %d runs, want none in 1", checked, runs)
	}
}
