package harness_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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

// refFaultScript draws a random mixed schedule for n processes as a fault
// script: up to n-1 crashes, each in the data step (an escaped subset) or in
// the control step (all data and a prefix), and send masks, receive masks
// and whole-phase drops strictly before the process's crash round, at most
// one per (process, round), each dropping something.
func refFaultScript(t *testing.T, rng *rand.Rand, n int) fuzz.Script {
	var events []string
	crashRound := map[int]int{}
	for _, i := range rng.Perm(n)[:rng.Intn(n)] {
		p, r, k := i+1, rng.Intn(n)+1, rng.Intn(n)
		data, ctrl := fmt.Sprintf("%0*b", k, rng.Int63n(1<<k)), 0
		if rng.Intn(2) == 0 {
			data, ctrl = strings.Repeat("1", n), rng.Intn(n)
		}
		crashRound[p] = r
		events = append(events, fmt.Sprintf("p%d@r%d:%s/%d", p, r, data, ctrl))
	}
	drop, omits := strings.Repeat("0", n), map[[2]int]bool{}
	for range 1 + rng.Intn(n) {
		p, r := rng.Intn(n)+1, rng.Intn(n+1)+1
		if cr := crashRound[p]; omits[[2]int{p, r}] || cr != 0 && r >= cr {
			continue
		}
		omits[[2]int{p, r}] = true
		omission := "so:" + drop + "/" + drop
		switch rng.Intn(4) {
		case 1:
			omission = "ro:" + drop
		case 2:
			k := rng.Intn(n)
			omission = "so:" + dropMask(rng, 1+rng.Intn(n)) + "/" + fmt.Sprintf("%0*b", k, rng.Int63n(1<<k))
		case 3:
			omission = "ro:" + dropMask(rng, n)
		}
		events = append(events, fmt.Sprintf("p%d@r%d:%s", p, r, omission))
	}
	s, err := fuzz.Parse(strings.Join(events, ";"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// dropMask draws a delivered-mask of k >= 1 positions that drops at least
// one: a k-bit number below 2^k - 1 has a 0 bit.
func dropMask(rng *rand.Rand, k int) string { return fmt.Sprintf("%0*b", k, rng.Int63n(1<<k-1)) }

// refInputs returns the inputs of the reference differential: random crash
// scripts for every protocol and both CRW ablations, random fault scripts
// mixing omissions with crashes for every protocol, and fuzz schedules —
// crash-only and crash+omission — recorded on the deterministic engine and
// replayed as scripts.
func refInputs(t *testing.T) []refInput {
	var ins []refInput
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		crashes := refCrashPlans(rng, n)
		mixed := refFaultScript(t, rng, n)
		for _, spec := range refSpecs(t, n) {
			name := fmt.Sprintf("seed %d %s n=%d asc=%v cad=%v", seed, spec.Protocol, n, spec.OrderAscending, spec.CommitAsData)
			ins = append(ins, refInput{"crashes " + name, spec,
				func() sim.Adversary { return adversary.NewScript(crashes) }})
			if !spec.OrderAscending && !spec.CommitAsData {
				ins = append(ins, refInput{"omissions " + name, spec, mixed.Adversary})
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

// refSuite is the reference differential of TestConcurrentEngineContract:
// its inputs with the reference model's outcome of each.
type refSuite struct {
	ins      []refInput
	wants    []*sim.Result
	wantErrs []error
}

func newRefSuite(t *testing.T) refSuite {
	s := refSuite{ins: refInputs(t)}
	crashed, omissive := 0, 0
	for _, in := range s.ins {
		j := in.job()
		want, err := refRun(j.Model, j.Horizon, j.Procs, j.Adv)
		s.wants, s.wantErrs = append(s.wants, want), append(s.wantErrs, err)
		if want.Faults() > 0 {
			crashed++
		}
		if want.OmissionFaulty() > 0 {
			omissive++
		}
	}
	if crashed < len(s.ins)/2 || omissive < len(s.ins)/5 {
		t.Errorf("%d of %d inputs crash a process and %d omit; the differential is not exercising the fault models",
			crashed, len(s.ins), omissive)
	}
	return s
}

// check runs every input on one engine of the kind: rounds, outcomes,
// counters and ledger must equal the reference's, so reuse across sizes is
// checked too. With perProcess each input runs at GOMAXPROCS = n.
func (s refSuite) check(t *testing.T, kind harness.Kind, perProcess bool) {
	base := runtime.NumGoroutine()
	cache := harness.NewCache()
	eng := engine(t, cache, kind)
	if perProcess {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	}
	for i, in := range s.ins {
		if perProcess {
			runtime.GOMAXPROCS(in.spec.N)
		}
		got, err := eng.Run(in.job())
		if got == nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if d := refDiff(got, err, s.wants[i], s.wantErrs[i]); d != "" {
			t.Errorf("%s: %s", in.name, d)
		} else if err == nil {
			clean(t, in.name, got, err)
		}
	}
	cache.Close()
	released(t, "after Close", base)
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
		newFactory := spec.Explorer(c.crashes, c.omissions, nil)
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
