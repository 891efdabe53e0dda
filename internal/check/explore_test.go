package check_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/consensus/earlystop"
	"repro/internal/consensus/floodset"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/sim"
)

func TestBacktrackerEnumeratesFullTree(t *testing.T) {
	// A fixed choice structure Choose(2) then Choose(3) has 6 leaves.
	bt := check.NewBacktracker()
	seen := map[string]bool{}
	for {
		a := bt.Choose(adversary.DataBit, 2)
		b := bt.Choose(adversary.DataBit, 3)
		key := fmt.Sprintf("%d-%d", a, b)
		if seen[key] {
			t.Fatalf("duplicate execution %s", key)
		}
		seen[key] = true
		if !bt.Next() {
			break
		}
	}
	if len(seen) != 6 {
		t.Fatalf("enumerated %d executions, want 6", len(seen))
	}
}

func TestBacktrackerDependentTree(t *testing.T) {
	// The shape of later choices may depend on earlier picks; count leaves of
	// Choose(2) -> {0: Choose(2), 1: leaf}: 3 executions.
	bt := check.NewBacktracker()
	count := 0
	for {
		if bt.Choose(adversary.DataBit, 2) == 0 {
			bt.Choose(adversary.DataBit, 2)
		}
		count++
		if !bt.Next() {
			break
		}
	}
	if count != 3 {
		t.Fatalf("enumerated %d executions, want 3", count)
	}
}

func TestBacktrackerTrivialChoices(t *testing.T) {
	bt := check.NewBacktracker()
	if v := bt.Choose(adversary.DataBit, 1); v != 0 {
		t.Errorf("Choose(1) = %d, want 0", v)
	}
	if v := bt.Choose(adversary.DataBit, 0); v != 0 {
		t.Errorf("Choose(0) = %d, want 0", v)
	}
	if bt.Next() {
		t.Error("Next() = true for a tree with no real choices")
	}
}

func TestReplayerReproducesScript(t *testing.T) {
	r := &check.Replayer{Values: []int{1, 2, 0}}
	got := []int{r.Choose(adversary.DataBit, 2), r.Choose(adversary.DataBit, 3), r.Choose(adversary.DataBit, 2), r.Choose(adversary.DataBit, 5)}
	want := []int{1, 2, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("choice %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Out-of-range script values are clamped.
	r2 := &check.Replayer{Values: []int{9}}
	if v := r2.Choose(adversary.DataBit, 3); v != 2 {
		t.Errorf("clamped choice = %d, want 2", v)
	}
}

// crwFactory gives each explorer walk or worker its own CRWFactory.
func crwFactory(n, t int, opts core.Options) func() check.RunFactory {
	return func() check.RunFactory { return check.CRWFactory(n, t, opts) }
}

// fullValidator checks the uniform consensus spec plus the f+1 bound and
// rejects engine errors.
func fullValidator(bound func(int) sim.Round) check.Validator {
	return func(ex check.Execution, res *sim.Result, engineErr error) error {
		if engineErr != nil {
			return engineErr
		}
		if err := check.Consensus(ex.Proposals, res); err != nil {
			return err
		}
		if bound != nil {
			return check.RoundBound(res, bound)
		}
		return nil
	}
}

func TestExhaustiveCRWSmall(t *testing.T) {
	// Experiment E5: enumerate EVERY execution of the faithful algorithm for
	// small systems. Every execution must satisfy uniform consensus and the
	// f+1 decision bound of Theorem 1, and the bound must be attained
	// (tightness: some execution with f = t crashes decides only at t+1).
	cases := []struct {
		n, t int
	}{
		{3, 1},
		{3, 2},
		{4, 1},
		{4, 2},
		{5, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n=%d,t=%d", tc.n, tc.t), func(t *testing.T) {
			stats, err := check.Explore(crwFactory(tc.n, tc.t, core.Options{}),
				fullValidator(check.BoundFPlus1),
				check.ExploreOpts{Budget: 20_000_000})
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			if len(stats.Counterexamples) != 0 {
				ce := stats.Counterexamples[0]
				t.Fatalf("violation after %d executions: %v (script %v, decisions %s)",
					stats.Executions, ce.Err, ce.Script, ce.Result.DecisionsString())
			}
			if stats.MaxFaults != tc.t {
				t.Errorf("max faults = %d, want %d", stats.MaxFaults, tc.t)
			}
			// Tightness: the f+1 bound is met with equality somewhere.
			if want := sim.Round(tc.t + 1); stats.MaxDecideRound != want {
				t.Errorf("max decide round = %d, want exactly %d (bound tight)",
					stats.MaxDecideRound, want)
			}
			t.Logf("n=%d t=%d: %d executions, max decide round %d",
				tc.n, tc.t, stats.Executions, stats.MaxDecideRound)
		})
	}
}

func TestExhaustiveAscendingOrderViolatesBound(t *testing.T) {
	// Experiment E10a: with the ascending commit order, the explorer finds an
	// execution violating the f+1 bound (but never an agreement violation).
	agreementOnly := func(ex check.Execution, res *sim.Result, engineErr error) error {
		if engineErr != nil {
			return engineErr
		}
		return check.Consensus(ex.Proposals, res)
	}
	stats, err := check.Explore(crwFactory(4, 1, core.Options{Order: core.OrderAscending}),
		agreementOnly, check.ExploreOpts{Budget: 20_000_000})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(stats.Counterexamples) != 0 {
		t.Fatalf("agreement violated under ascending order: %v", stats.Counterexamples[0].Err)
	}
	// Now check the round bound: it must fail somewhere.
	stats, err = check.Explore(crwFactory(4, 1, core.Options{Order: core.OrderAscending}),
		fullValidator(check.BoundFPlus1), check.ExploreOpts{Budget: 20_000_000})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(stats.Counterexamples) == 0 {
		t.Fatal("ascending commit order unexpectedly satisfies the f+1 bound everywhere")
	}
	if !errors.Is(stats.Counterexamples[0].Err, check.ErrRoundBound) {
		t.Fatalf("counterexample error = %v, want round bound violation", stats.Counterexamples[0].Err)
	}
	t.Logf("found bound violation, script %v", stats.Counterexamples[0].Script)
}

func TestExhaustiveCommitAsDataViolatesAgreement(t *testing.T) {
	// Experiment E10b: without the two-step send structure (commit sent as an
	// ordinary data message), the explorer finds a uniform agreement
	// violation.
	stats, err := check.Explore(crwFactory(3, 1, core.Options{CommitAsData: true}),
		fullValidator(nil), check.ExploreOpts{Budget: 20_000_000})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(stats.Counterexamples) == 0 {
		t.Fatal("commit-as-data unexpectedly satisfies uniform agreement everywhere")
	}
	found := false
	for _, ce := range stats.Counterexamples {
		if errors.Is(ce.Err, check.ErrAgreement) {
			found = true
			t.Logf("agreement counterexample: %v (script %v)", ce.Err, ce.Script)
		}
	}
	if !found {
		// The first violation may be a round-bound artifact; search deeper.
		stats, err = check.Explore(crwFactory(3, 1, core.Options{CommitAsData: true}),
			func(ex check.Execution, res *sim.Result, engineErr error) error {
				if engineErr != nil {
					return nil // tolerate horizon issues; we want agreement only
				}
				if err := check.Consensus(ex.Proposals, res); errors.Is(err, check.ErrAgreement) {
					return err
				}
				return nil
			}, check.ExploreOpts{Budget: 20_000_000})
		if err != nil {
			t.Fatalf("explore: %v", err)
		}
		if len(stats.Counterexamples) == 0 {
			t.Fatal("no uniform agreement violation found for commit-as-data")
		}
	}
}

// classicFactory gives each explorer walk or worker one system of a classic
// baseline with n processes, resilience and crash budget t and 8-bit
// proposals, rebuilt by reset for every execution.
func classicFactory[S any](n, t int, reset func(*S, []sim.Value, int, int) []sim.Process) func() check.RunFactory {
	return func() check.RunFactory {
		sys := new(S)
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = sim.Value(10 + i)
		}
		adv := adversary.NewFromChooser(nil, t, sim.Round(t+1))
		return func(ch adversary.Chooser) check.Execution {
			adv.C = ch
			adv.Reset()
			return check.Execution{
				Procs:     reset(sys, props, t, 8),
				Adv:       adv,
				Cfg:       sim.Config{Model: sim.ModelClassic, Horizon: sim.Round(t + 2)},
				Proposals: props,
			}
		}
	}
}

func TestExhaustiveEarlyStop(t *testing.T) {
	// The classic early-stopping baseline satisfies uniform consensus and the
	// min(f+2, t+1) bound on every execution of small systems.
	cases := []struct{ n, t int }{{3, 1}, {3, 2}, {4, 1}}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n=%d,t=%d", tc.n, tc.t), func(t *testing.T) {
			factory := classicFactory(tc.n, tc.t, (*earlystop.System).Reset)
			stats, err := check.Explore(factory, fullValidator(check.BoundClassic(tc.t)),
				check.ExploreOpts{Budget: 20_000_000})
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			if len(stats.Counterexamples) != 0 {
				ce := stats.Counterexamples[0]
				t.Fatalf("violation: %v (script %v, decisions %s)",
					ce.Err, ce.Script, ce.Result.DecisionsString())
			}
			t.Logf("n=%d t=%d: %d executions, max decide round %d",
				tc.n, tc.t, stats.Executions, stats.MaxDecideRound)
		})
	}
}

func TestExhaustiveFloodSet(t *testing.T) {
	// FloodSet satisfies uniform consensus on every execution and always
	// takes exactly t+1 rounds.
	cases := []struct{ n, t int }{{3, 1}, {3, 2}}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n=%d,t=%d", tc.n, tc.t), func(t *testing.T) {
			factory := classicFactory(tc.n, tc.t, (*floodset.System).Reset)
			validator := func(ex check.Execution, res *sim.Result, engineErr error) error {
				if engineErr != nil {
					return engineErr
				}
				if err := check.Consensus(ex.Proposals, res); err != nil {
					return err
				}
				// Every decider decides exactly at round t+1: no early stopping.
				for i, o := range res.Procs {
					if o.DecideRound != 0 && o.DecideRound != sim.Round(tc.t+1) {
						return fmt.Errorf("p%d decided at round %d, want %d", i+1, o.DecideRound, tc.t+1)
					}
				}
				return nil
			}
			stats, err := check.Explore(factory, validator, check.ExploreOpts{Budget: 20_000_000})
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			if len(stats.Counterexamples) != 0 {
				ce := stats.Counterexamples[0]
				t.Fatalf("violation: %v (script %v)", ce.Err, ce.Script)
			}
			t.Logf("n=%d t=%d: %d executions", tc.n, tc.t, stats.Executions)
		})
	}
}

func TestExploreBudgetExhaustion(t *testing.T) {
	_, err := check.Explore(crwFactory(4, 2, core.Options{}), fullValidator(nil),
		check.ExploreOpts{Budget: 10})
	if !errors.Is(err, check.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// sendAndRecv wraps the omission tree and counts the consults at which one
// process send-omits and receive-omits in the same round.
type sendAndRecv struct {
	*adversary.OmittingFromChooser
	hits *int
}

func (s sendAndRecv) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	om := s.OmittingFromChooser.Omits(p, r, plan)
	if om.Data != nil && om.Recv != nil {
		*s.hits++
	}
	return om
}

// TestExploreOmissionBudgetTwoSendAndRecvInOneRound explores CRW at n=3
// under omissions alone. At budget 1 the explorer enumerates E15's 25
// executions, none of which omits both ways in one round; at budget 2 it
// also reaches the legal schedules in which one process send-omits and
// receive-omits in the same round.
func TestExploreOmissionBudgetTwoSendAndRecvInOneRound(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		budget, wantExecs int
		wantBoth          bool
	}{{1, 25, false}, {2, 0, true}} {
		factory := func() check.RunFactory {
			var sys protocol.Systems
			props := []sim.Value{10, 11, 12}
			adv := sendAndRecv{adversary.NewFromChooserWithOmissions(nil, 0, n, tc.budget, n), new(int)}
			return func(ch adversary.Chooser) check.Execution {
				adv.C = ch
				adv.Reset()
				*adv.hits = 0
				procs, model, horizon := protocol.Spec{N: n}.Build(&sys, props)
				return check.Execution{Procs: procs, Adv: adv, Cfg: sim.Config{Model: model, Horizon: horizon}, Proposals: props}
			}
		}
		both := 0
		count := func(ex check.Execution, _ *sim.Result, _ error) error {
			if *ex.Adv.(sendAndRecv).hits > 0 {
				both++
			}
			return nil
		}
		stats, err := check.Explore(factory, count, check.ExploreOpts{Budget: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if tc.wantExecs > 0 && stats.Executions != tc.wantExecs {
			t.Errorf("budget %d: %d executions, want %d", tc.budget, stats.Executions, tc.wantExecs)
		}
		if (both > 0) != tc.wantBoth {
			t.Errorf("budget %d: %d of %d executions send-omit and receive-omit in one round, want any: %v",
				tc.budget, both, stats.Executions, tc.wantBoth)
		}
	}
}

// TestExploreE5Allocs pins the exact allocation count of the E5 exhaustive
// exploration (n=4, t=2, 151 executions validated for consensus and the f+1
// bound). The explorer's factory builds every execution in its one system,
// proposal vector and adversary, so the count is a per-run constant — the
// factory, the engine, the backtracker, the kept worst script and the mask
// arena growing to the deepest execution — and no execution allocates. Any
// increase fails; when a change lowers the count, ratchet the pin down to
// the new figure in the same change.
func TestExploreE5Allocs(t *testing.T) {
	factory := crwFactory(4, 2, core.Options{})
	validate := fullValidator(check.BoundFPlus1)
	allocs := testing.AllocsPerRun(20, func() {
		stats, err := check.Explore(factory, validate, check.ExploreOpts{Budget: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Executions != 151 || len(stats.Counterexamples) != 0 {
			t.Fatalf("%d executions, %d counterexamples; want 151, 0",
				stats.Executions, len(stats.Counterexamples))
		}
	})
	const pin = 17
	if allocs > pin {
		t.Errorf("E5 exploration allocates %v allocs/run, pinned at %d; ratchet the pin down when the count falls",
			allocs, pin)
	}
}

// TestCounterexamplesKeepTheirOwnRun: the explorer's engine rewrites its
// result on every execution, so each counterexample must keep a result and
// a verdict of its own. Every one, sequential or parallel, equals a fresh
// engine's replay of its script.
func TestCounterexamplesKeepTheirOwnRun(t *testing.T) {
	newFactory := crwFactory(4, 3, core.Options{CommitAsData: true})
	validate := fullValidator(nil)
	for _, tc := range []struct {
		name    string
		explore func(func() check.RunFactory, check.Validator, check.ExploreOpts) (check.Stats, error)
	}{
		{"sequential", check.Explore},
		{"parallel", check.ExploreParallel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats, err := tc.explore(newFactory, validate, check.ExploreOpts{MaxCounterexamples: 6, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.Counterexamples) < 3 {
				t.Fatalf("%d counterexamples, want at least 3", len(stats.Counterexamples))
			}
			distinct, factory := map[string]bool{}, newFactory()
			for i, ce := range stats.Counterexamples {
				ex := factory(&check.Replayer{Values: ce.Script})
				eng, err := sim.NewEngine(ex.Cfg, ex.Procs, ex.Adv)
				if err != nil {
					t.Fatal(err)
				}
				res, runErr := eng.Run()
				verr := validate(ex, res, runErr)
				if !reflect.DeepEqual(ce.Result, res) {
					t.Errorf("counterexample %d %v: kept result %+v, replay %+v", i, ce.Script, ce.Result, res)
				}
				if fmt.Sprint(ce.Err) != fmt.Sprint(verr) {
					t.Errorf("counterexample %d %v: kept verdict %q, replay %q", i, ce.Script, ce.Err, verr)
				}
				distinct[fmt.Sprint(verr)] = true
			}
			if len(distinct) < 2 {
				t.Errorf("every counterexample renders %v: a stale verdict would go unnoticed", distinct)
			}
		})
	}
}
