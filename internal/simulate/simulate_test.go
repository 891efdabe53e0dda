package simulate_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simulate"
)

func props(n int) []sim.Value {
	vs := make([]sim.Value, n)
	for i := range vs {
		vs[i] = sim.Value(100 + i)
	}
	return vs
}

func TestStrideAndRoundConversion(t *testing.T) {
	if simulate.Stride(5) != 5 {
		t.Errorf("Stride(5) = %d, want 5", simulate.Stride(5))
	}
	if r := simulate.MacroRound(1, 4); r != 1 {
		t.Errorf("MacroRound(1,4) = %d, want 1", r)
	}
	if r := simulate.MacroRound(4, 4); r != 1 {
		t.Errorf("MacroRound(4,4) = %d, want 1", r)
	}
	if r := simulate.MacroRound(5, 4); r != 2 {
		t.Errorf("MacroRound(5,4) = %d, want 2", r)
	}
	if r := simulate.MicroRounds(3, 4); r != 12 {
		t.Errorf("MicroRounds(3,4) = %d, want 12", r)
	}
	if r := simulate.MacroRound(0, 4); r != 0 {
		t.Errorf("MacroRound(0,4) = %d, want 0", r)
	}
}

func TestSimulatedCRWFailureFree(t *testing.T) {
	// The paper's algorithm simulated on the classic model decides in one
	// macro round = n micro rounds when p1 is correct, with the same value.
	const n = 5
	pr := props(n)
	procs := simulate.OnClassic(core.NewSystem(pr, core.Options{}))
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic,
		Horizon: simulate.MicroRounds(sim.Round(n+2), n)}, procs, adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := check.Consensus(pr, res); err != nil {
		t.Fatal(err)
	}
	if got, want := simulate.MacroRound(res.MaxDecideRound(), n), sim.Round(1); got != want {
		t.Errorf("macro decide round = %d, want %d (micro %d)", got, want, res.MaxDecideRound())
	}
	for id, v := range res.Decisions() {
		if v != pr[0] {
			t.Errorf("p%d decided %d, want %d", id, int64(v), int64(pr[0]))
		}
	}
}

func TestSimulationPreservesPrefixSemantics(t *testing.T) {
	// Crash p1 in the micro round carrying control position 2 (micro round 3
	// for n=4: phases are data,c0,c1,c2), delivering nothing in that micro
	// round. p1's control order is descending [p4, p3, p2], so positions 0
	// and 1 escaped: exactly p4 and p3 received the commit — a prefix — and
	// decide in macro round 1; p2 decides in macro round 2 under p2's own
	// coordination with p1's locked value.
	const n = 4
	pr := props(n)
	procs := simulate.OnClassic(core.NewSystem(pr, core.Options{}))
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 3, DeliverAllData: false}, // micro round 3 = control position 1 (0-based)
	})
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic,
		Horizon: simulate.MicroRounds(sim.Round(n+2), n)}, procs, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := check.Consensus(pr, res); err != nil {
		t.Fatal(err)
	}
	// Crash in micro round 3 means control positions 0 (micro 2) escaped but
	// position 1 (micro 3) did not: only p4 has the commit in macro round 1.
	if mr := simulate.MacroRound(res.Procs[3].DecideRound, n); mr != 1 {
		t.Errorf("p4 decided in macro round %d, want 1", mr)
	}
	for _, id := range []sim.ProcID{2, 3} {
		if mr := simulate.MacroRound(res.Procs[id-1].DecideRound, n); mr != 2 {
			t.Errorf("p%d decided in macro round %d, want 2", id, mr)
		}
	}
	// Everyone decides p1's locked value (the data step completed).
	for id, v := range res.Decisions() {
		if v != pr[0] {
			t.Errorf("p%d decided %d, want %d", id, int64(v), int64(pr[0]))
		}
	}
}

func TestSimulatedRunsSatisfyConsensusUnderRandomFaults(t *testing.T) {
	const n = 5
	for seed := int64(0); seed < 40; seed++ {
		pr := props(n)
		procs := simulate.OnClassic(core.NewSystem(pr, core.Options{}))
		adv := adversary.NewRandom(seed, 0.05, n-1)
		eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic,
			Horizon: simulate.MicroRounds(sim.Round(n+2), n)}, procs, adv)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := check.Consensus(pr, res); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestExhaustiveSimulatedCRW(t *testing.T) {
	// Model-check the simulation itself for a small system: every execution
	// of the simulated protocol satisfies uniform consensus, and decisions
	// happen within f+1 macro rounds.
	const n, budget = 3, 20_000_000
	factory := func() check.RunFactory {
		var sys core.System
		pr := props(n)
		adv := adversary.NewFromChooser(nil, n-1, simulate.MicroRounds(sim.Round(n), n))
		return func(ch adversary.Chooser) check.Execution {
			adv.C = ch
			adv.Reset()
			return check.Execution{
				Procs:     simulate.OnClassic(sys.Reset(pr, core.Options{})),
				Adv:       adv,
				Cfg:       sim.Config{Model: sim.ModelClassic, Horizon: simulate.MicroRounds(sim.Round(n+2), n)},
				Proposals: pr,
			}
		}
	}
	validator := func(ex check.Execution, res *sim.Result, engineErr error) error {
		if engineErr != nil {
			return engineErr
		}
		if err := check.Consensus(ex.Proposals, res); err != nil {
			return err
		}
		return check.RoundBound(res, func(f int) sim.Round {
			return simulate.MicroRounds(sim.Round(f+1), n)
		})
	}
	stats, err := check.Explore(factory, validator, check.ExploreOpts{Budget: budget})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(stats.Counterexamples) != 0 {
		ce := stats.Counterexamples[0]
		t.Fatalf("violation: %v (script %v)", ce.Err, ce.Script)
	}
	t.Logf("%d executions, max micro decide round %d", stats.Executions, stats.MaxDecideRound)
}

func TestClassicProtocolRunsUnchangedUnderExtended(t *testing.T) {
	// The other direction of the equivalence: a classic protocol (here the
	// paper's algorithm in CommitAsData form, which is control-free) runs
	// under the extended model with identical results.
	pr := props(4)
	run := func(model sim.Model) *sim.Result {
		procs := core.NewSystem(pr, core.Options{CommitAsData: true})
		eng, err := sim.NewEngine(sim.Config{Model: model, Horizon: 8}, procs,
			adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
				1: {Round: 1, DeliverAllData: true},
			}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(sim.ModelClassic), run(sim.ModelExtended)
	if a.Rounds != b.Rounds {
		t.Errorf("rounds differ: classic %d vs extended %d", a.Rounds, b.Rounds)
	}
	for i, o := range a.Procs {
		if b.Procs[i].Value != o.Value {
			t.Errorf("p%d: decisions differ: %d vs %d", i+1, int64(o.Value), int64(b.Procs[i].Value))
		}
	}
}
