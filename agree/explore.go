package agree

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/fuzz"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// ExploreConfig configures an exhaustive exploration of the paper's
// algorithm (or one of its ablations): every crash schedule and delivery
// truncation the model allows for the given system size is enumerated and
// validated against uniform consensus and the f+1 round bound.
type ExploreConfig struct {
	// N is the number of processes (required; keep small — the space is
	// exhaustive).
	N int
	// T is the crash budget, below N (0 defaults to N-1).
	T int
	// OrderAscending flips the commit order to ascending (ablation: the f+1
	// bound fails).
	OrderAscending bool
	// CommitAsData folds the commit into the data step (ablation: uniform
	// agreement fails).
	CommitAsData bool
	// OmissionBudget additionally enumerates bounded-omission schedules: up
	// to this many omission events (send omissions of any non-empty message
	// subset, receive omissions of any non-empty sender subset) on top of
	// the crash schedules. The paper assumes reliable channels and crash
	// faults only, so with a non-zero budget the search is expected to find
	// agreement violations — the omission ablation. The f+1 round bound (a
	// crash-model theorem) is not checked when the budget is non-zero.
	OmissionBudget int
	// OmissionOnly zeroes the crash budget (T defaults to N-1 otherwise —
	// there is no way to express "no crashes" through T itself), so the
	// search enumerates pure omission schedules, and with a zero
	// OmissionBudget the one failure-free execution. Every counterexample
	// then contains zero crashes by construction.
	OmissionOnly bool
	// Budget caps the number of executions (0 = the default, 50,000,000).
	// Explore rejects a negative Budget or OmissionBudget.
	Budget int
	// MaxCounterexamples stops the search after this many violations
	// (default 1).
	MaxCounterexamples int
	// Parallel shards the choice space across a worker pool. The exploration
	// result is identical to the sequential one whenever the search runs to
	// completion (see check.ExploreParallel for the exact guarantee).
	Parallel bool
	// Workers sets the pool size when Parallel is set (0 = GOMAXPROCS).
	Workers int
}

// ExploreCounterexample is one violating execution, identified by its fault
// script.
type ExploreCounterexample struct {
	// Script is the execution's fault script, the ReplayFaults format:
	// FuzzReplayScript, agreefuzz -replay and agreexplore -replay reproduce
	// the execution from it.
	Script string
	// Err describes the violated property.
	Err error
	// Rounds is the number of rounds executed; Decisions and Crashed mirror
	// Report's fields.
	Rounds    int
	Decisions map[int]int64
	Crashed   map[int]int
}

// ExploreWorst is the slowest execution explored: the first, in enumeration
// order, whose latest decision is the exploration's MaxDecideRound.
type ExploreWorst struct {
	// Script is the execution's fault script (see
	// ExploreCounterexample.Script).
	Script string
	// DecideRound is its latest decision round, Faults its crash count.
	DecideRound int
	Faults      int
}

// ExploreReport aggregates an exploration.
type ExploreReport struct {
	// Executions is the number of distinct executions explored.
	Executions int
	// MaxRounds is the maximum run length seen.
	MaxRounds int
	// MaxDecideRound is the latest decision round seen in any execution.
	MaxDecideRound int
	// MaxFaults is the largest number of crashes in any execution.
	MaxFaults int
	// Counterexamples are the violations found (empty for the faithful
	// algorithm).
	Counterexamples []ExploreCounterexample
	// Worst is the slowest execution explored.
	Worst ExploreWorst
	// Workers is the number of workers the exploration ran on: 1 when it
	// ran sequentially, Parallel unset or not paying for itself.
	Workers int
}

// Explore exhaustively model-checks the configured system. It is the public
// face of the internal/check explorer, wired to the paper's algorithm.
func Explore(cfg ExploreConfig) (*ExploreReport, error) {
	spec, err := resolve(protocol.Spec{N: cfg.N, T: cfg.T,
		OrderAscending: cfg.OrderAscending, CommitAsData: cfg.CommitAsData})
	if err != nil {
		return nil, err
	}
	if cfg.OmissionBudget < 0 {
		return nil, fmt.Errorf("agree: omission budget %d is negative", cfg.OmissionBudget)
	}
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("agree: execution budget %d is negative", cfg.Budget)
	}
	crashes := spec.T
	if cfg.OmissionOnly {
		crashes = 0
	}
	if cfg.Budget == 0 {
		cfg.Budget = 50_000_000
	}
	stats, err := spec.Explore(crashes, cfg.OmissionBudget, cfg.Parallel, check.ExploreOpts{
		Budget:             cfg.Budget,
		MaxCounterexamples: cfg.MaxCounterexamples,
		Workers:            cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("agree: explore: %w", err)
	}
	rep := &ExploreReport{
		Executions:     stats.Executions,
		MaxRounds:      int(stats.MaxRounds),
		MaxDecideRound: int(stats.MaxDecideRound),
		MaxFaults:      stats.MaxFaults,
		Workers:        stats.Workers,
	}
	faultScript := faultScripts(spec, crashes, cfg.OmissionBudget)
	for _, ce := range stats.Counterexamples {
		script, err := faultScript(ce.Script)
		if err != nil {
			return nil, err
		}
		decisions, _, crashed, _ := outcomeMaps(ce.Result, 1)
		rep.Counterexamples = append(rep.Counterexamples, ExploreCounterexample{
			Script: script.String(), Err: ce.Err, Rounds: int(ce.Result.Rounds), Decisions: decisions, Crashed: crashed,
		})
	}
	worst, err := faultScript(stats.Worst)
	if err != nil {
		return nil, err
	}
	rep.Worst = ExploreWorst{Script: worst.String(), DecideRound: rep.MaxDecideRound, Faults: worst.Crashes()}
	return rep, nil
}

// faultScripts returns the converter from the choice script of an execution
// spec's explorer enumerates to the execution's fault script, a view valid
// until the converter's next call. It replays the execution once on one
// engine, a fuzz.Recording observing the explorer's adversary, so only the
// executions a report names pay for it.
func faultScripts(spec protocol.Spec, crashes, omissions int) func(choices []int) (fuzz.Script, error) {
	var (
		rec fuzz.Recording
		eng sim.Engine
	)
	factory := spec.Explorer(crashes, omissions, &rec)()
	return func(choices []int) (fuzz.Script, error) {
		rec.Reset()
		ex := factory(&check.Replayer{Values: choices})
		if err := eng.ResetConfig(ex.Cfg, ex.Procs, ex.Adv); err != nil {
			return fuzz.Script{}, fmt.Errorf("agree: explore: replaying %v: %w", choices, err)
		}
		// The run's own error is a verdict the exploration already gave.
		_, _ = eng.Run()
		return rec.Script(), nil
	}
}
