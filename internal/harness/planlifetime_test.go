package harness_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus/earlystop"
	"repro/internal/consensus/floodset"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/simulate"
)

// poisoner enforces the plan-lifetime contract of sim.Process.Send from the
// sender's side: it hands out a private copy of the inner plan and, at the
// next Send, first overwrites that copy with poison — out-of-range
// destinations, nil payloads — before delegating. Whoever still reads a plan
// after its process's next Send reads garbage for the rest of the run, so a
// retained plan shows up as an engine error, a panic or a different result.
type poisoner struct {
	sim.Process
	last sim.SendPlan
}

func (p *poisoner) Send(r sim.Round) sim.SendPlan {
	for i := range p.last.Data {
		p.last.Data[i] = sim.Outgoing{To: -1}
	}
	for i := range p.last.Control {
		p.last.Control[i] = -1
	}
	plan := p.Process.Send(r)
	p.last = sim.SendPlan{
		Data:    append([]sim.Outgoing(nil), plan.Data...),
		Control: append([]sim.ProcID(nil), plan.Control...),
	}
	return p.last
}

func poisoned(procs []sim.Process) []sim.Process {
	out := make([]sim.Process, len(procs))
	for i, p := range procs {
		out[i] = &poisoner{Process: p}
	}
	return out
}

// wrapFn decorates a process set (identity or poisoned).
type wrapFn func([]sim.Process) []sim.Process

// lifetimeSystem is one protocol set the contract tests run.
type lifetimeSystem struct {
	name    string
	model   sim.Model
	horizon sim.Round
	props   []sim.Value
	build   func(wrap wrapFn) []sim.Process
}

// lifetimeSystems returns the three protocols natively, and CRW under the
// classic-model simulation — whose wrapper holds the inner plan across the
// micro rounds of one macro round, the longest any layer may keep one.
func lifetimeSystems(n, t int) []lifetimeSystem {
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = sim.Value(100 + (i*7)%n)
	}
	return []lifetimeSystem{
		{"crw", sim.ModelExtended, sim.Round(n + 2), props, func(wrap wrapFn) []sim.Process {
			return wrap(core.NewSystem(props, core.Options{}))
		}},
		{"earlystop", sim.ModelClassic, sim.Round(t + 2), props, func(wrap wrapFn) []sim.Process {
			return wrap(earlystop.NewSystem(props, t, 0))
		}},
		{"floodset", sim.ModelClassic, sim.Round(t + 2), props, func(wrap wrapFn) []sim.Process {
			return wrap(floodset.NewSystem(props, t, 0))
		}},
		{"crw-on-classic", sim.ModelClassic, simulate.MicroRounds(sim.Round(n+2), n), props, func(wrap wrapFn) []sim.Process {
			return wrap(simulate.OnClassic(wrap(core.NewSystem(props, core.Options{}))))
		}},
	}
}

func identity(procs []sim.Process) []sim.Process { return procs }

// TestPlanLifetimeContract runs every protocol on every engine twice — bare
// and through the poisoner — under a crash script with partial deliveries
// and under scripted omissions, and requires identical results: no engine,
// adversary or wrapper reads a plan after its process's next Send.
func TestPlanLifetimeContract(t *testing.T) {
	const n, tol = 7, 3
	advs := map[string]func() sim.Adversary{
		"crash": func() sim.Adversary {
			return adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
				1: {Round: 1, DataMask: []bool{true, false, true, false, true, true}, CtrlPrefix: 0},
				2: {Round: 2, DeliverAllData: true, CtrlPrefix: 2},
				5: {Round: 3, DataMask: []bool{false, true}},
			})
		},
		"omission": func() sim.Adversary {
			return adversary.NewOmissionScript(n, map[sim.ProcID][]adversary.OmissionPlan{
				3: {{Round: 1, SendData: []bool{true, false, true}, Recv: []bool{false, true, true, false}}},
				6: {{Round: 2, Recv: []bool{true, false}}},
			})
		},
	}
	cache := harness.NewCache()
	defer cache.Close()
	for _, sys := range lifetimeSystems(n, tol) {
		for advName, adv := range advs {
			for _, kind := range harness.Kinds() {
				eng, err := cache.Get(kind)
				if err != nil {
					t.Fatal(err)
				}
				run := func(wrap wrapFn) (*sim.Result, error) {
					return eng.Run(harness.Job{Model: sys.model, Horizon: sys.horizon,
						Procs: sys.build(wrap), Adv: adv()})
				}
				want, wantErr := run(identity)
				got, gotErr := run(poisoned)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%s: poisoned run differs:\n got %+v (%v)\nwant %+v (%v)",
						sys.name, advName, kind, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

// TestPlanLifetimeContractFuzzRecorder does the same under the fuzzer's
// recording adversary (crashes and omissions sampled while the run executes,
// then replayed and shrunk on a violation) on the deterministic engines: the
// recorded script, the verdict and the shrunk script must not depend on the
// poisoner.
func TestPlanLifetimeContractFuzzRecorder(t *testing.T) {
	const n, tol = 6, 3
	gen := fuzz.Gen{T: tol, SendOmitProb: 0.15, RecvOmitProb: 0.15, MaxOmissive: 2}
	oracle := fuzz.ConsensusOracle(nil)
	summary := func(o fuzz.Outcome, err error) string {
		shrunk := ""
		if o.Shrunk != nil {
			shrunk = o.Shrunk.String()
		}
		return fmt.Sprintf("script=%q err=%v shrunk=%q shrunkErr=%v execs=%d rounds=%d decide=%d f=%d om=%d fatal=%v",
			o.Script.String(), o.Err, shrunk, o.ShrunkErr, o.Executions, o.Rounds, o.MaxDecideRound, o.Faults, o.Omissive, err)
	}
	cache := harness.NewCache()
	defer cache.Close()
	for _, sys := range lifetimeSystems(n, tol) {
		for _, kind := range harness.Kinds() {
			eng, err := cache.Get(kind)
			if err != nil {
				t.Fatal(err)
			}
			if !eng.Capabilities().Deterministic {
				// The recorder draws from one RNG in consultation order, which
				// on lockstep is goroutine scheduling order: two bare runs
				// already differ there.
				continue
			}
			factory := func(wrap wrapFn) fuzz.Factory {
				return func() fuzz.Target {
					return fuzz.Target{Model: sys.model, Horizon: sys.horizon, Procs: sys.build(wrap), Proposals: sys.props}
				}
			}
			for seed := int64(1); seed <= 40; seed++ {
				opts := fuzz.Options{Gen: gen, Shrink: true, MaxShrinkRuns: 64}
				want := summary(fuzz.RunSeed(eng, factory(identity), oracle, seed, opts))
				got := summary(fuzz.RunSeed(eng, factory(poisoned), oracle, seed, opts))
				if got != want {
					t.Fatalf("%s/%s seed %d: poisoned campaign differs:\n got %s\nwant %s", sys.name, kind, seed, got, want)
				}
			}
		}
	}
}
