package check_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/laws"
	"repro/internal/sim"
)

// TestViolationTextsNameLowestID pins the process a violation names: when
// several processes qualify, the lowest id, on every call. Two checks used to
// pick it by map iteration, so one seed could print a different p%d from run
// to run.
func TestViolationTextsNameLowestID(t *testing.T) {
	// Three late deciders (p2, p3, p5) under one crash: the f+1 bound is 2.
	late := &sim.Result{Rounds: 4, Procs: []sim.Outcome{
		{CrashRound: 1},
		{Value: 10, DecideRound: 4},
		{Value: 10, DecideRound: 3},
		{Value: 10, DecideRound: 1},
		{Value: 10, DecideRound: 4},
	}}
	// Two deciders holding non-proposals (p2, p4).
	proposals := []sim.Value{10, 11, 12, 13}
	invalid := &sim.Result{Rounds: 1, Procs: []sim.Outcome{
		{Value: 10, DecideRound: 1},
		{Value: 99, DecideRound: 1},
		{CrashRound: 1},
		{Value: 77, DecideRound: 1},
	}}
	cases := []struct {
		name string
		run  func() error
		is   error
		want string
	}{
		{"round bound", func() error { return check.RoundBound(late, check.BoundFPlus1) }, check.ErrRoundBound,
			"check: decision round bound violated: p2 decided at round 4 > bound 2 (f=1)"},
		{"validity", func() error { return check.Consensus(proposals, invalid) }, check.ErrValidity,
			"check: validity violated (decision not a proposal): p2 decided 99, proposals [10 11 12 13]"},
	}
	for _, tc := range cases {
		for i := 0; i < 50; i++ {
			err := tc.run()
			if !errors.Is(err, tc.is) || err.Error() != tc.want {
				t.Fatalf("%s, call %d: got %v, want %q", tc.name, i, err, tc.want)
			}
		}
	}
}

// TestAgreementTextRendersDecisionMap pins the agreement violation bytes:
// the decided set prints exactly as fmt prints a map[ProcID]Value.
func TestAgreementTextRendersDecisionMap(t *testing.T) {
	res := &sim.Result{Rounds: 2, Procs: []sim.Outcome{
		{Value: 11, DecideRound: 2},
		{CrashRound: 1},
		{Value: 10, DecideRound: 1},
	}}
	err := check.Consensus([]sim.Value{10, 11, 12}, res)
	const want = "check: uniform agreement violated (two distinct decisions): decisions [10 11] by map[1:11 3:10]"
	if !errors.Is(err, check.ErrAgreement) || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}

// TestAgreementErrorTextUnchanged compares the lazily rendered agreement
// violation with the fmt.Errorf it replaced, byte for byte, over random
// results holding at least two distinct decisions; the violation must still
// match ErrAgreement and carry no law class.
func TestAgreementErrorTextUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	proposals := []sim.Value{10, 11, 12, 13, 14, 15}
	for i := 0; i < 1000; i++ {
		res := &sim.Result{Rounds: sim.Round(1 + rng.Intn(5)), Procs: make([]sim.Outcome, 2+rng.Intn(10))}
		for j := range res.Procs {
			switch o := &res.Procs[j]; rng.Intn(4) {
			case 0:
				o.CrashRound = sim.Round(1 + rng.Intn(4))
			case 1:
				// undecided, alive
			default:
				o.Value, o.DecideRound = proposals[rng.Intn(len(proposals))], sim.Round(1+rng.Intn(4))
			}
		}
		if len(res.DistinctDecisions()) < 2 {
			continue
		}
		err := check.Consensus(proposals, res)
		want := fmt.Errorf("%w: decisions %v by %s", check.ErrAgreement, res.DistinctDecisions(), res.DecisionsString())
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("result %+v: got %v, want %q", res.Procs, err, want)
		}
		if !errors.Is(err, check.ErrAgreement) {
			t.Fatalf("%v does not match ErrAgreement", err)
		}
		if law := laws.Of(err); law != "" {
			t.Fatalf("%v classified as law %q", err, law)
		}
	}
}

// TestAgreementViolationAllocatesNothing pins the violating path: the error
// holds the result and renders it only when read, so shrinking, which
// replays thousands of violating runs, pays nothing for the texts it never
// reads.
func TestAgreementViolationAllocatesNothing(t *testing.T) {
	res := &sim.Result{Rounds: 2, Procs: []sim.Outcome{
		{Value: 11, DecideRound: 2},
		{CrashRound: 1},
		{Value: 10, DecideRound: 1},
	}}
	proposals := []sim.Value{10, 11, 12}
	allocs := testing.AllocsPerRun(100, func() {
		if err := check.Consensus(proposals, res); err == nil {
			t.Fatal("agreement violation not reported")
		}
	})
	if allocs != 0 {
		t.Errorf("violating Consensus allocates %.1f allocs/call, want 0", allocs)
	}
}

// TestCleanChecksAllocateNothing pins the clean path of the per-run checks
// at zero allocations: they run once per configuration in every sweep.
func TestCleanChecksAllocateNothing(t *testing.T) {
	proposals := []sim.Value{10, 11, 12, 13}
	res := &sim.Result{Rounds: 2, Procs: []sim.Outcome{
		{CrashRound: 1},
		{Value: 11, DecideRound: 2},
		{Value: 11, DecideRound: 2},
		{Value: 11, DecideRound: 2, OmissiveRounds: 1},
	}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := check.Consensus(proposals, res); err != nil {
			t.Fatal(err)
		}
		if err := check.RoundBound(res, check.BoundFPlus1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("clean Consensus+RoundBound allocate %.1f allocs/call, want 0", allocs)
	}
}
