package agree_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/agree"
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
		if seq.Workers != 1 || got.Workers != par.Workers {
			t.Errorf("%+v: ran on %d and %d workers, want 1 and %d", cfg, seq.Workers, got.Workers, par.Workers)
		}
		got.Workers = seq.Workers
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

// TestExploreKeptVerdictsRenderTheirOwnRun replays every counterexample of
// the ablation and omission cells, and each cell's worst execution, from its
// fault script through FuzzReplayScript. The explorer's engine reruns for
// every later execution, so each counterexample must keep the run it judged:
// its replay gives the explorer's verdict, rounds, crashes and decisions.
// The worst execution replays to its decision round and crash count.
func TestExploreKeptVerdictsRenderTheirOwnRun(t *testing.T) {
	cells := []agree.ExploreConfig{
		{N: 3, T: 1, CommitAsData: true},
		{N: 4, T: 3, CommitAsData: true},
		{N: 4, T: 1, OrderAscending: true},
		{N: 5, T: 2, OrderAscending: true},
		{N: 3, OmissionOnly: true, OmissionBudget: 1},
		{N: 4, T: 1, OmissionBudget: 1},
	}
	verdicts := map[string]bool{}
	for _, cfg := range cells {
		cfg.MaxCounterexamples = 1 << 20
		rep, err := agree.Explore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Counterexamples) == 0 {
			t.Errorf("%+v: no counterexamples", cfg)
		}
		fcfg := agree.FuzzConfig{N: cfg.N, T: cfg.T, OrderAscending: cfg.OrderAscending, CommitAsData: cfg.CommitAsData}
		for _, ce := range rep.Counterexamples {
			replay, err := agree.FuzzReplayScript(fcfg, ce.Script, false)
			if err != nil {
				t.Fatalf("%+v: %q: %v", cfg, ce.Script, err)
			}
			got := fmt.Sprintf("%v rounds %d crashed %v decisions %v", replay.Err, replay.Rounds, replay.Crashed, replay.Decisions)
			want := fmt.Sprintf("%v rounds %d crashed %v decisions %v", ce.Err, ce.Rounds, ce.Crashed, ce.Decisions)
			if got != want {
				t.Errorf("%+v: %q replays to\n%s\nwant\n%s", cfg, ce.Script, got, want)
			}
			verdicts[fmt.Sprint(ce.Err)] = true
		}
		replay, err := agree.FuzzReplayScript(fcfg, rep.Worst.Script, false)
		if err != nil {
			t.Fatalf("%+v: worst %q: %v", cfg, rep.Worst.Script, err)
		}
		decide := 0
		for _, r := range replay.DecideRound {
			decide = max(decide, r)
		}
		if decide != rep.Worst.DecideRound || len(replay.Crashed) != rep.Worst.Faults || decide != rep.MaxDecideRound {
			t.Errorf("%+v: worst %q replays to decide round %d with %d crashes, want %d with %d",
				cfg, rep.Worst.Script, decide, len(replay.Crashed), rep.Worst.DecideRound, rep.Worst.Faults)
		}
	}
	if len(verdicts) < 2 {
		t.Errorf("every counterexample renders %v: a stale verdict would go unnoticed", verdicts)
	}
}
