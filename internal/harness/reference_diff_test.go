package harness_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// refInput is one input of the reference differential: a resolved protocol
// spec and a maker of fresh adversaries, so the reference and every engine
// each run the schedule on a system and an adversary of their own.
type refInput struct {
	name string
	spec protocol.Spec
	adv  func() sim.Adversary
}

// refSentinels are the engine errors the differential tells apart; any other
// error is a plan the model forbids.
var refSentinels = []error{sim.ErrNoProgress, sim.ErrHaltedWithoutDecision,
	sim.ErrBadOutcome, sim.ErrBadOmission, sim.ErrControlInClassic}

// refErrClass classifies a run error: -1 for none, the index of its sentinel,
// or len(refSentinels) for a rejected plan.
func refErrClass(err error) int {
	if err == nil {
		return -1
	}
	for i, s := range refSentinels {
		if errors.Is(err, s) {
			return i
		}
	}
	return len(refSentinels)
}

// refDiff returns the first difference between an engine's run and the
// reference's, or "". A run that ended in ErrNoProgress still compares its
// result; a run aborted inside a phase compares its error only.
func refDiff(got *sim.Result, gotErr error, want *sim.Result, wantErr error) string {
	switch {
	case refErrClass(gotErr) != refErrClass(wantErr):
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	case gotErr != nil && !errors.Is(gotErr, sim.ErrNoProgress):
		return ""
	case got.Rounds != want.Rounds:
		return fmt.Sprintf("rounds %d, reference %d", got.Rounds, want.Rounds)
	case !slices.Equal(got.Procs, want.Procs):
		return fmt.Sprintf("outcomes %+v, reference %+v", got.Procs, want.Procs)
	case got.Counters != want.Counters:
		return fmt.Sprintf("counters %+v, reference %+v", got.Counters, want.Counters)
	case got.Ledger != want.Ledger:
		return fmt.Sprintf("ledger %+v, reference %+v", got.Ledger, want.Ledger)
	}
	return ""
}

// refProposals returns p_{i+1}'s proposal 100+i for n processes.
func refProposals(n int) []sim.Value {
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = sim.Value(100 + i)
	}
	return props
}

// refSpecs returns the resolved specs of every protocol and both CRW
// ablations at n processes.
func refSpecs(t *testing.T, n int) []protocol.Spec {
	var specs []protocol.Spec
	for _, s := range []protocol.Spec{
		{Protocol: protocol.CRW}, {Protocol: protocol.EarlyStop}, {Protocol: protocol.FloodSet},
		{Protocol: protocol.CRW, OrderAscending: true}, {Protocol: protocol.CRW, CommitAsData: true},
	} {
		s.N = n
		s, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// refCrashPlans draws a random legal crash schedule for n processes: up to
// n-1 crashes, each in the data step (an escaped subset) or in the control
// step (all data and a prefix). Oversized masks and prefixes are cut to the
// plan positionally.
func refCrashPlans(rng *rand.Rand, n int) map[sim.ProcID]adversary.CrashPlan {
	plans := map[sim.ProcID]adversary.CrashPlan{}
	perm := rng.Perm(n)
	for _, i := range perm[:rng.Intn(n)] {
		cp := adversary.CrashPlan{Round: sim.Round(rng.Intn(n) + 1)}
		if rng.Intn(2) == 0 {
			cp.DataMask = make([]bool, rng.Intn(n))
			for j := range cp.DataMask {
				cp.DataMask[j] = rng.Intn(2) == 1
			}
		} else {
			cp.DeliverAllData, cp.CtrlPrefix = true, rng.Intn(n+1)
		}
		plans[sim.ProcID(i+1)] = cp
	}
	return plans
}

// refOmissionPlans draws a random omission schedule for n processes: send
// masks, receive masks, whole-phase drops, one plan per (process, round).
func refOmissionPlans(rng *rand.Rand, n int) map[sim.ProcID][]adversary.OmissionPlan {
	plans := map[sim.ProcID][]adversary.OmissionPlan{}
	mask := func(k int) []bool {
		m := make([]bool, k)
		for j := range m {
			m[j] = rng.Intn(2) == 1
		}
		return m
	}
	for range 1 + rng.Intn(n) {
		p, r := sim.ProcID(rng.Intn(n)+1), sim.Round(rng.Intn(n+1)+1)
		if slices.ContainsFunc(plans[p], func(op adversary.OmissionPlan) bool { return op.Round == r }) {
			continue
		}
		op := adversary.OmissionPlan{Round: r}
		switch rng.Intn(4) {
		case 0:
			op.DropAllSend = true
		case 1:
			op.DropAllRecv = true
		case 2:
			op.SendData, op.SendCtrl = mask(rng.Intn(n)), mask(rng.Intn(n))
		default:
			op.Recv = mask(n)
		}
		plans[p] = append(plans[p], op)
	}
	return plans
}

// refInputs returns the inputs of TestEnginesMatchReference: random crash
// scripts for every protocol and both CRW ablations, random scripted
// omissions mixed with crashes for every protocol, and fuzz schedules —
// crash-only and crash+omission — recorded on the deterministic engine and
// replayed as scripts.
func refInputs(t *testing.T) []refInput {
	var ins []refInput
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		crashes := refCrashPlans(rng, n)
		omissions := refOmissionPlans(rng, n)
		for _, spec := range refSpecs(t, n) {
			name := fmt.Sprintf("seed %d %s n=%d asc=%v cad=%v", seed, spec.Protocol, n, spec.OrderAscending, spec.CommitAsData)
			ins = append(ins, refInput{"crashes " + name, spec,
				func() sim.Adversary { return adversary.NewScript(crashes) }})
			if !spec.OrderAscending && !spec.CommitAsData {
				ins = append(ins, refInput{"omissions " + name, spec, func() sim.Adversary {
					return adversary.Combine(adversary.NewScript(crashes), adversary.NewOmissionScript(n, omissions))
				}})
			}
		}
	}
	det, err := harness.New(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	pass := func([]sim.Value, *sim.Result, error) error { return nil }
	for seed := int64(0); seed < 60; seed++ {
		n := 3 + int(seed%8)
		spec, err := protocol.Spec{N: n}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		gen := fuzz.Gen{T: n - 1, CrashProb: 0.3}
		if seed%2 == 1 {
			gen = fuzz.Gen{T: n - 1, CrashProb: 0.15, SendOmitProb: 0.12, RecvOmitProb: 0.08}
		}
		factory := func() fuzz.Target {
			var sys protocol.Systems
			procs, model, horizon := spec.Build(&sys, refProposals(n))
			return fuzz.Target{Model: model, Horizon: horizon, Procs: procs, Proposals: refProposals(n)}
		}
		out, err := fuzz.RunSeed(det, factory, pass, seed, fuzz.Options{Gen: gen})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, refInput{fmt.Sprintf("fuzz seed %d n=%d %q", seed, n, out.Script), spec, out.Script.Adversary})
	}
	return ins
}

// job builds the input's job on a fresh system and adversary.
func (in refInput) job() harness.Job {
	var sys protocol.Systems
	procs, model, horizon := in.spec.Build(&sys, refProposals(in.spec.N))
	return harness.Job{Model: model, Horizon: horizon, Procs: procs, Adv: in.adv()}
}

// TestEnginesMatchReference runs every registered engine against the
// reference model on random crash scripts, scripted omissions and replayed
// fuzz schedules: rounds, outcomes, counters and ledger must be identical.
// One engine of each kind runs every input, so reuse across sizes is part
// of what is checked. The lockstep subtest at GOMAXPROCS = n gives every
// process a shard goroutine of its own. scripts/verify.sh runs this under
// -race -count=10.
func TestEnginesMatchReference(t *testing.T) {
	ins := refInputs(t)
	crashed, omissive := 0, 0
	wants := make([]*sim.Result, len(ins))
	wantErrs := make([]error, len(ins))
	for i, in := range ins {
		j := in.job()
		wants[i], wantErrs[i] = refRun(j.Model, j.Horizon, j.Procs, j.Adv)
		if wants[i].Faults() > 0 {
			crashed++
		}
		if wants[i].OmissionFaulty() > 0 {
			omissive++
		}
	}
	if crashed < len(ins)/2 || omissive < len(ins)/5 {
		t.Fatalf("%d of %d inputs crash a process and %d omit; the differential is not exercising the fault models",
			crashed, len(ins), omissive)
	}
	run := func(t *testing.T, kind harness.Kind, perProcess bool) {
		cache := harness.NewCache()
		defer cache.Close()
		eng, err := cache.Get(kind)
		if err != nil {
			t.Fatal(err)
		}
		if perProcess {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		}
		for i, in := range ins {
			if perProcess {
				runtime.GOMAXPROCS(in.spec.N)
			}
			got, err := eng.Run(in.job())
			if got == nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			if d := refDiff(got, err, wants[i], wantErrs[i]); d != "" {
				t.Errorf("%s: %s", in.name, d)
			}
		}
	}
	for _, kind := range harness.Kinds() {
		t.Run(string(kind), func(t *testing.T) { run(t, kind, false) })
	}
	t.Run("lockstep-GOMAXPROCS=n", func(t *testing.T) { run(t, harness.KindLockstep, true) })
}

// TestReferenceMatchesExplorer makes the reference differential exhaustive
// on small systems: a check.Backtracker enumerates every execution of the
// E5 cells with n ≤ 4, and of one crash+omission cell, on the deterministic
// engine, and each one is replayed on the reference through a
// check.Replayer of its choice script.
func TestReferenceMatchesExplorer(t *testing.T) {
	cells := []struct{ n, crashes, omissions, executions int }{
		{3, 1, 0, 10}, {3, 2, 0, 54}, {4, 1, 0, 16}, {4, 2, 0, 151}, {4, 3, 0, 856}, {4, 1, 1, 1422},
	}
	det, err := harness.New(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		spec, err := protocol.Spec{N: c.n, T: c.crashes}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		newFactory := spec.Explorer(c.crashes, c.omissions)
		factory, replay := newFactory(), newFactory()
		bt := check.NewBacktracker()
		executions := 0
		for more := true; more; more = bt.Next() {
			ex := factory(bt)
			got, gotErr := det.Run(harness.Job{Model: ex.Cfg.Model, Horizon: ex.Cfg.Horizon, Procs: ex.Procs, Adv: ex.Adv})
			if got == nil {
				t.Fatalf("n=%d: %v", c.n, gotErr)
			}
			script := bt.Script()
			ref := replay(&check.Replayer{Values: script})
			want, wantErr := refRun(ref.Cfg.Model, ref.Cfg.Horizon, ref.Procs, ref.Adv)
			if d := refDiff(got, gotErr, want, wantErr); d != "" {
				t.Errorf("n=%d crashes=%d omissions=%d script %v: %s", c.n, c.crashes, c.omissions, script, d)
			}
			executions++
		}
		if executions != c.executions {
			t.Errorf("n=%d crashes=%d omissions=%d: %d executions, want %d",
				c.n, c.crashes, c.omissions, executions, c.executions)
		}
	}
}
