package check

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

// e5Factory is the E5 workload: the faithful algorithm at n=4, t=2 (151
// executions, zero violations).
func e5Factory() RunFactory { return CRWFactory(4, 2, core.Options{}) }

// e10Factory is the E10 workload: the commit-as-data ablation at n=3, t=1,
// whose space contains uniform-agreement violations.
func e10Factory() RunFactory { return CRWFactory(3, 1, core.Options{CommitAsData: true}) }

// CRWFactory builds the paper's algorithm with n processes and crash budget t
// for one explorer worker: every execution reuses its system, proposals and
// adversary. It is exported to the package's external tests.
func CRWFactory(n, t int, opts core.Options) RunFactory {
	var sys core.System
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = sim.Value(10 + i)
	}
	adv := adversary.NewFromChooser(nil, t, sim.Round(n))
	cfg := sim.Config{Model: sim.ModelExtended, Horizon: sim.Round(n + 2)}
	if opts.CommitAsData {
		cfg.Model = sim.ModelClassic
	}
	return func(ch adversary.Chooser) Execution {
		adv.C = ch
		adv.Reset()
		return Execution{Procs: sys.Reset(props, opts), Adv: adv, Cfg: cfg, Proposals: props}
	}
}

// fullValidator checks consensus plus the f+1 bound.
func fullValidator(ex Execution, res *sim.Result, engineErr error) error {
	if engineErr != nil {
		return engineErr
	}
	if err := Consensus(ex.Proposals, res); err != nil {
		return err
	}
	return RoundBound(res, BoundFPlus1)
}

// consensusValidator checks the consensus spec only.
func consensusValidator(ex Execution, res *sim.Result, engineErr error) error {
	if engineErr != nil {
		return engineErr
	}
	return Consensus(ex.Proposals, res)
}

// scriptsOf projects the counterexample scripts.
func scriptsOf(ces []Counterexample) [][]int {
	out := make([][]int, len(ces))
	for i, ce := range ces {
		out[i] = ce.Script
	}
	return out
}

// assertSameExploration compares every Stats field the determinism guarantee
// covers: executions, maxima, and the exact counterexample script sequence.
func assertSameExploration(t *testing.T, seq, par Stats) {
	t.Helper()
	if par.Executions != seq.Executions {
		t.Errorf("executions: parallel %d, sequential %d", par.Executions, seq.Executions)
	}
	if par.MaxRounds != seq.MaxRounds {
		t.Errorf("max rounds: parallel %d, sequential %d", par.MaxRounds, seq.MaxRounds)
	}
	if par.MaxDecideRound != seq.MaxDecideRound {
		t.Errorf("max decide round: parallel %d, sequential %d", par.MaxDecideRound, seq.MaxDecideRound)
	}
	if par.MaxFaults != seq.MaxFaults {
		t.Errorf("max faults: parallel %d, sequential %d", par.MaxFaults, seq.MaxFaults)
	}
	if !reflect.DeepEqual(scriptsOf(par.Counterexamples), scriptsOf(seq.Counterexamples)) {
		t.Errorf("counterexample scripts differ:\nparallel   %v\nsequential %v",
			scriptsOf(par.Counterexamples), scriptsOf(seq.Counterexamples))
	}
}

// TestExploreParallelMatchesSequentialE5 is the differential test on the
// faithful-algorithm space: a complete exploration with no violations must
// produce identical stats across worker counts.
func TestExploreParallelMatchesSequentialE5(t *testing.T) {
	opts := ExploreOpts{Budget: 1_000_000, MaxCounterexamples: 1 << 20}
	seq, err := Explore(e5Factory, fullValidator, opts)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if len(seq.Counterexamples) != 0 {
		t.Fatalf("sequential found unexpected violations: %v", scriptsOf(seq.Counterexamples))
	}
	for _, workers := range []int{2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := opts
			o.Workers = workers
			par, err := ExploreParallel(e5Factory, fullValidator, o)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			assertSameExploration(t, seq, par)
		})
	}
}

// TestExploreParallelMatchesSequentialE10 is the differential test on the
// ablation space, which contains real counterexamples: with the limit set
// above the total violation count both searches run to completion, so the
// parallel explorer must report the exact same counterexample set, in the
// same lexicographic order.
func TestExploreParallelMatchesSequentialE10(t *testing.T) {
	opts := ExploreOpts{Budget: 1_000_000, MaxCounterexamples: 1 << 20}
	seq, err := Explore(e10Factory, consensusValidator, opts)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if len(seq.Counterexamples) == 0 {
		t.Fatal("sequential found no violations; the E10 ablation space must contain some")
	}
	for _, workers := range []int{2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := opts
			o.Workers = workers
			par, err := ExploreParallel(e10Factory, consensusValidator, o)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			assertSameExploration(t, seq, par)
		})
	}
}

// TestExploreParallelBudget checks that the shared ticket counter enforces
// Budget exactly: the parallel explorer runs precisely Budget executions and
// reports ErrBudget, like the sequential one.
func TestExploreParallelBudget(t *testing.T) {
	// Budget 40 with 4 workers is below the workers*16 threshold: the
	// documented sequential fallback, with sequential budget semantics.
	opts := ExploreOpts{Budget: 40, MaxCounterexamples: 1 << 20, Workers: 4}
	if got := EffectiveWorkers(opts); got != 1 {
		t.Fatalf("EffectiveWorkers = %d, want 1 (sequential fallback)", got)
	}
	par, err := ExploreParallel(e5Factory, fullValidator, opts)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if par.Executions != 40 {
		t.Errorf("executions = %d, want exactly the budget 40", par.Executions)
	}
	// Budget 100 with 4 workers stays parallel (100 >= 64) and is below the
	// 151-execution space: the shared atomic ticket must stop the pool at
	// exactly 100 counted executions.
	opts = ExploreOpts{Budget: 100, MaxCounterexamples: 1 << 20, Workers: 4}
	if got := EffectiveWorkers(opts); got != 4 {
		t.Fatalf("EffectiveWorkers = %d, want 4 (parallel path)", got)
	}
	for i := 0; i < 10; i++ {
		par, err = ExploreParallel(e5Factory, fullValidator, opts)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("iteration %d: err = %v, want ErrBudget", i, err)
		}
		if par.Executions != 100 {
			t.Errorf("iteration %d: executions = %d, want exactly the budget 100", i, par.Executions)
		}
	}
}

// TestExploreParallelCounterexampleLimit checks early termination: the
// search must stop at the limit and report exactly that many genuine
// violations.
func TestExploreParallelCounterexampleLimit(t *testing.T) {
	opts := ExploreOpts{Budget: 1_000_000, MaxCounterexamples: 1, Workers: 4}
	par, err := ExploreParallel(e10Factory, consensusValidator, opts)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if len(par.Counterexamples) != 1 {
		t.Fatalf("got %d counterexamples, want 1", len(par.Counterexamples))
	}
	// The reported script must reproduce a genuine violation.
	ce := par.Counterexamples[0]
	ex := e10Factory()(&Replayer{Values: ce.Script})
	eng, err := sim.NewEngine(ex.Cfg, ex.Procs, ex.Adv)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := eng.Run()
	if verr := consensusValidator(ex, res, runErr); verr == nil {
		t.Errorf("counterexample script %v does not reproduce a violation", ce.Script)
	}
}

// TestExploreParallelLimitBeatsBudget pins the outcome precedence: whenever
// the counterexample limit is reached, the run is a success (nil error) even
// if other workers exhausted the ticket budget concurrently; ErrBudget is
// only reported when the search stopped without reaching the limit.
func TestExploreParallelLimitBeatsBudget(t *testing.T) {
	// Small budgets take the documented sequential fallback.
	for budget := 1; budget <= 19; budget++ {
		par, err := ExploreParallel(e10Factory, consensusValidator,
			ExploreOpts{Budget: budget, MaxCounterexamples: 1, Workers: 4})
		switch {
		case len(par.Counterexamples) >= 1:
			if err != nil {
				t.Errorf("budget %d: found a counterexample but got err %v", budget, err)
			}
		case err == nil:
			t.Errorf("budget %d: no counterexample and no error; want ErrBudget", budget)
		case !errors.Is(err, ErrBudget):
			t.Errorf("budget %d: err = %v, want ErrBudget", budget, err)
		}
	}
	// Genuinely parallel path: budget 100 ≥ workers*16 on the 151-execution
	// E5 space with a synthetic validator that flags every ≥1-fault
	// execution, so workers race the counterexample limit against ticket
	// exhaustion.
	popts := ExploreOpts{Budget: 100, MaxCounterexamples: 1, Workers: 4}
	if got := EffectiveWorkers(popts); got != 4 {
		t.Fatalf("EffectiveWorkers = %d, want 4 (parallel path)", got)
	}
	faultFlagger := func(ex Execution, res *sim.Result, engineErr error) error {
		if engineErr != nil {
			return engineErr
		}
		if res.Faults() >= 1 {
			return errors.New("synthetic: faulty execution flagged")
		}
		return nil
	}
	for i := 0; i < 20; i++ {
		par, err := ExploreParallel(e5Factory, faultFlagger, popts)
		if len(par.Counterexamples) >= 1 && err != nil {
			t.Fatalf("iteration %d: found a counterexample but got err %v", i, err)
		}
		if len(par.Counterexamples) == 0 {
			t.Fatalf("iteration %d: no counterexample found on a space full of them", i)
		}
	}
}

// TestExploreEngineReuse guards the Reset path: exploring twice with the
// same factory must give identical results whether or not the engine is
// reused (the sequential explorer reuses it internally; a fresh Explore call
// starts from scratch).
func TestExploreEngineReuse(t *testing.T) {
	a, err := Explore(e5Factory, fullValidator, ExploreOpts{Budget: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(e5Factory, fullValidator, ExploreOpts{Budget: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	assertSameExploration(t, a, b)
	if a.Executions != 151 {
		t.Errorf("E5 space = %d executions, want the documented 151", a.Executions)
	}
}
