package agree

import (
	"errors"
	"fmt"

	"repro/internal/check"
	"repro/internal/protocol"
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
	// search enumerates pure omission schedules; it requires a non-zero
	// OmissionBudget. Every counterexample then contains zero crashes by
	// construction.
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

// ExploreCounterexample is one violating execution, identified by its choice
// script (replayable via cmd/agreexplore -replay).
type ExploreCounterexample struct {
	// Script is the choice script reproducing the execution.
	Script []int
	// Err describes the violated property.
	Err error
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
		if cfg.OmissionBudget <= 0 {
			return nil, errors.New("agree: OmissionOnly requires a non-zero OmissionBudget")
		}
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
	}
	for _, ce := range stats.Counterexamples {
		rep.Counterexamples = append(rep.Counterexamples, ExploreCounterexample{
			Script: ce.Script,
			Err:    ce.Err,
		})
	}
	return rep, nil
}
