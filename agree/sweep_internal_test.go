package agree

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
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

// reportSink keeps the Report a pin measures on the heap, as runConfig's is.
var reportSink *Report

// TestSweptConfigAllocatesOnlyItsReport pins a swept config's floor exactly:
// on a warmed worker (engine, systems, proposal vector and model storage
// grown), runConfig for a coordinator-crash, a scripted crash, a timed
// jitter, a random omission and a scripted omission config allocates what
// its public report is made of, the Report and the maps outcomeMaps builds,
// and nothing else: not its adversary or the delivery masks it hands out,
// not its latency model, not its engine run.
func TestSweptConfigAllocatesOnlyItsReport(t *testing.T) {
	omissions, err := ReplayFaults("p1@r1:so:101/;p2@r1:ro:" + strings.Repeat("0", 16) + ";p2@r2:ro:" + strings.Repeat("01", 8))
	if err != nil {
		t.Fatal(err)
	}
	cache := harness.NewCache()
	defer cache.Close()
	var w worker
	for _, tc := range []struct {
		name     string
		cfg      Config
		violates bool // the report keeps a detached agreement violation
	}{
		{"coordinator", Config{N: 32, Faults: CoordinatorCrashes(4)}, false},
		{"scripted", Config{N: 32, Faults: ScriptedFaults(map[int]CrashPlan{
			1: {Round: 1},
			2: {Round: 2, DeliverAllData: true, CtrlPrefix: 3},
			3: {Round: 3, DataMask: slices.Repeat([]bool{true, false}, 16)},
		})}, false},
		{"jitter", Config{N: 32, Engine: EngineTimed, Latency: JitterLatency(7, 1, 0.1, 0.1, 0.85),
			Faults: CoordinatorCrashes(4)}, false},
		// Omissions break the reliable channels the paper assumes, and with
		// them agreement.
		{"random-omission", Config{N: 16, Faults: OmissionFaults(3, 0.3, 0.2, 4)}, true},
		{"scripted-omission", Config{N: 16, Faults: omissions}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, res, err := runConfig(tc.cfg, cache, &w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if (rep.ConsensusErr != nil) != tc.violates {
				t.Fatalf("consensus verdict %v, want a violation: %v", rep.ConsensusErr, tc.violates)
			}
			report := testing.AllocsPerRun(50, func() {
				reportSink = &Report{ConsensusErr: check.Detach(check.Consensus(w.props, res))}
				reportSink.Decisions, reportSink.DecideRound, reportSink.Crashed, reportSink.Omissive = outcomeMaps(res, 1)
			})
			got := testing.AllocsPerRun(50, func() {
				rep, _, err := runConfig(tc.cfg, cache, &w, nil)
				if err != nil {
					t.Fatal(err)
				}
				if (rep.ConsensusErr != nil) != tc.violates {
					t.Fatalf("consensus verdict %v on a rerun, want a violation: %v", rep.ConsensusErr, tc.violates)
				}
			})
			if got != report {
				t.Errorf("runConfig allocates %v times on a warmed worker, want exactly the report's %v", got, report)
			}
		})
	}
}
