package agree_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/agree"
	"repro/internal/check"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// TestExploreFaithful checks the public explorer on the faithful algorithm:
// the documented E5 space (n=4, t=2, 151 executions) with zero violations.
func TestExploreFaithful(t *testing.T) {
	rep, err := agree.Explore(agree.ExploreConfig{N: 4, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 151 {
		t.Errorf("executions = %d, want 151", rep.Executions)
	}
	if len(rep.Counterexamples) != 0 {
		t.Errorf("unexpected violations: %v", rep.Counterexamples)
	}
	if rep.MaxDecideRound != 3 {
		t.Errorf("max decide round = %d, want 3 (= t+1)", rep.MaxDecideRound)
	}
}

// TestExploreParallelKnob checks that the Parallel knob produces the same
// report as the sequential search, on both the faithful system and the
// commit-as-data ablation (which has counterexamples).
func TestExploreParallelKnob(t *testing.T) {
	for _, cfg := range []agree.ExploreConfig{
		{N: 4, T: 2, MaxCounterexamples: 1 << 20},
		{N: 3, T: 1, CommitAsData: true, MaxCounterexamples: 1 << 20},
	} {
		seq, err := agree.Explore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		par := cfg
		par.Parallel = true
		par.Workers = 4
		got, err := agree.Explore(par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("parallel report differs for %+v:\nsequential %+v\nparallel   %+v", cfg, seq, got)
		}
	}
}

// TestExploreAblationFindsViolation checks that the explorer exposes the
// commit-as-data agreement violation through the public API.
func TestExploreAblationFindsViolation(t *testing.T) {
	rep, err := agree.Explore(agree.ExploreConfig{N: 3, T: 1, CommitAsData: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) == 0 {
		t.Fatal("commit-as-data ablation produced no counterexample")
	}
	if rep.Counterexamples[0].Err == nil || len(rep.Counterexamples[0].Script) == 0 {
		t.Errorf("malformed counterexample: %+v", rep.Counterexamples[0])
	}
}

// TestExploreRejectsNegativeBudgets checks that a negative omission or
// execution budget is an error, not a silent crash-only or default search.
func TestExploreRejectsNegativeBudgets(t *testing.T) {
	for _, cfg := range []agree.ExploreConfig{
		{N: 3, OmissionBudget: -1},
		{N: 3, Budget: -5},
	} {
		if rep, err := agree.Explore(cfg); err == nil {
			t.Errorf("%+v: explored %d executions, want an error", cfg, rep.Executions)
		}
	}
}

// TestExploreKeptVerdictsRenderTheirOwnRun: the explorer's engine reruns for
// every later execution, so each counterexample's verdict must keep the run
// it judged, rendering exactly as a fresh replay of its script.
func TestExploreKeptVerdictsRenderTheirOwnRun(t *testing.T) {
	rep, err := agree.Explore(agree.ExploreConfig{N: 4, CommitAsData: true, MaxCounterexamples: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Counterexamples) < 3 {
		t.Fatalf("%d counterexamples on the commit-as-data ablation, want at least 3", len(rep.Counterexamples))
	}
	spec := protocol.Spec{N: 4, T: 3, CommitAsData: true}
	factory, validate := spec.Explorer(spec.T, 0)(), protocol.Validator(spec.Bound())
	distinct := map[string]bool{}
	for i, ce := range rep.Counterexamples {
		ex := factory(&check.Replayer{Values: ce.Script})
		eng, err := sim.NewEngine(ex.Cfg, ex.Procs, ex.Adv)
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := eng.Run()
		want := fmt.Sprint(validate(ex, res, runErr))
		if got := fmt.Sprint(ce.Err); got != want {
			t.Errorf("counterexample %d %v: kept verdict %q, replay %q", i, ce.Script, got, want)
		}
		distinct[want] = true
	}
	if len(distinct) < 2 {
		t.Errorf("every counterexample renders %v: a stale verdict would go unnoticed", distinct)
	}
}
