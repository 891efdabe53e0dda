package lockstep_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/consensus/earlystop"
	"repro/internal/consensus/floodset"
	"repro/internal/core"
	"repro/internal/lockstep"
	"repro/internal/sim"
)

func props(n int) []sim.Value {
	vs := make([]sim.Value, n)
	for i := range vs {
		vs[i] = sim.Value(100 + i)
	}
	return vs
}

// buildSystem constructs a fresh protocol instance by name.
func buildSystem(t *testing.T, kind string, pr []sim.Value) ([]sim.Process, sim.Model) {
	t.Helper()
	n := len(pr)
	switch kind {
	case "crw":
		return core.NewSystem(pr, core.Options{}), sim.ModelExtended
	case "floodset":
		return floodset.NewSystem(pr, n-1, 64), sim.ModelClassic
	case "earlystop":
		return earlystop.NewSystem(pr, n-1, 64), sim.ModelClassic
	default:
		t.Fatalf("unknown protocol %q", kind)
		return nil, 0
	}
}

// adversaries returns a fresh instance of each deterministic (order
// insensitive) adversary scenario.
func adversaries(n int) map[string]func() sim.Adversary {
	return map[string]func() sim.Adversary{
		"none": func() sim.Adversary { return adversary.None{} },
		"coordkiller-silent": func() sim.Adversary {
			return adversary.CoordinatorKiller{F: 2}
		},
		"coordkiller-data": func() sim.Adversary {
			return adversary.CoordinatorKiller{F: 2, DeliverAllData: true}
		},
		"script-prefix": func() sim.Adversary {
			return adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
				1: {Round: 1, DeliverAllData: true, CtrlPrefix: 1},
				3: {Round: 2, DeliverAllData: true, CtrlPrefix: adversary.CtrlAll},
			})
		},
		"script-subset": func() sim.Adversary {
			return adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
				2: {Round: 1, DataMask: []bool{true, false, true}},
			})
		},
	}
}

func TestLockstepMatchesDeterministicEngine(t *testing.T) {
	// Cross-validation: for every protocol and deterministic adversary, the
	// goroutine runtime and the deterministic engine must agree on rounds,
	// decisions, decide rounds, crash sets, and transmitted message counts.
	const n = 5
	for _, kind := range []string{"crw", "floodset", "earlystop"} {
		for name, mkAdv := range adversaries(n) {
			t.Run(fmt.Sprintf("%s/%s", kind, name), func(t *testing.T) {
				pr := props(n)

				procs1, model := buildSystem(t, kind, pr)
				eng, err := sim.NewEngine(sim.Config{Model: model, Horizon: n + 2}, procs1, mkAdv())
				if err != nil {
					t.Fatal(err)
				}
				want, err := eng.Run()
				if err != nil {
					t.Fatalf("deterministic engine: %v", err)
				}

				procs2, _ := buildSystem(t, kind, pr)
				rt, err := lockstep.New(lockstep.Config{Model: model, Horizon: n + 2}, procs2, mkAdv())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rt.Close)
				got, err := rt.Run()
				if err != nil {
					t.Fatalf("lockstep runtime: %v", err)
				}

				if got.Rounds != want.Rounds {
					t.Errorf("rounds: lockstep %d vs engine %d", got.Rounds, want.Rounds)
				}
				for i, o := range want.Procs {
					if got.Procs[i] != o {
						t.Errorf("p%d outcome: lockstep %+v vs engine %+v", i+1, got.Procs[i], o)
					}
				}
				if got.Counters.DataMsgs != want.Counters.DataMsgs ||
					got.Counters.CtrlMsgs != want.Counters.CtrlMsgs ||
					got.Counters.DataBits != want.Counters.DataBits ||
					got.Counters.CtrlBits != want.Counters.CtrlBits {
					t.Errorf("counters: lockstep %s vs engine %s", got.Counters.String(), want.Counters.String())
				}
			})
		}
	}
}

func TestLockstepConsensusUnderManyScriptedFaults(t *testing.T) {
	// Sweep scripted crash schedules (deterministic, order-insensitive) and
	// validate consensus through the goroutine runtime.
	const n = 6
	for f := 0; f <= n-1; f++ {
		pr := props(n)
		procs := core.NewSystem(pr, core.Options{})
		rt, err := lockstep.New(lockstep.Config{Model: sim.ModelExtended}, procs,
			adversary.CoordinatorKiller{F: f})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		res, err := rt.Run()
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if err := check.Consensus(pr, res); err != nil {
			t.Errorf("f=%d: %v", f, err)
		}
		if got, want := res.MaxDecideRound(), sim.Round(f+1); got != want {
			t.Errorf("f=%d: max decide round %d, want %d", f, got, want)
		}
	}
}

func TestLockstepManyProcesses(t *testing.T) {
	// A larger system exercises real goroutine concurrency.
	const n = 64
	pr := props(n)
	procs := core.NewSystem(pr, core.Options{})
	rt, err := lockstep.New(lockstep.Config{Model: sim.ModelExtended}, procs,
		adversary.CoordinatorKiller{F: 5, DeliverAllData: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Consensus(pr, res); err != nil {
		t.Fatal(err)
	}
	if got, want := res.MaxDecideRound(), sim.Round(6); got != want {
		t.Errorf("max decide round = %d, want %d", got, want)
	}
}
