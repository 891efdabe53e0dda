package check

import (
	"errors"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// ErrBudget is returned by Explore when the execution budget is exhausted
// before the choice space was covered.
var ErrBudget = errors.New("check: execution budget exhausted before exploration completed")

// choice is one resolved choice point: the value picked and its domain size.
type choice struct {
	picked int
	n      int
}

// Backtracker is an adversary.Chooser that enumerates all choice sequences
// in lexicographic order. Use it in a loop:
//
//	bt := NewBacktracker()
//	for {
//	    runExecutionWith(bt)
//	    if !bt.Next() { break }
//	}
//
// Every call sequence of Choose within one execution must be a deterministic
// function of the previously returned values (which holds for the
// deterministic engine), so the recorded script uniquely identifies an
// execution.
type Backtracker struct {
	script []choice
	pos    int
	// frozen is the length of the script prefix Next may not modify. A
	// frozen backtracker enumerates exactly the subtree of executions whose
	// first choices match the prefix; the parallel explorer shards the choice
	// space this way.
	frozen int
}

// NewBacktracker returns a chooser positioned at the all-zeros script.
func NewBacktracker() *Backtracker { return &Backtracker{} }

// newBacktrackerFrozen returns a chooser whose first len(prefix) choices are
// pinned: it starts at the lexicographically-first script extending the
// prefix and Next never backtracks into the pinned region.
func newBacktrackerFrozen(prefix []choice) *Backtracker {
	return &Backtracker{script: append([]choice(nil), prefix...), frozen: len(prefix)}
}

// Choose implements adversary.Chooser: it replays the current script and
// extends it with 0-picks at fresh choice points. The decision kind does not
// matter to an enumeration.
func (b *Backtracker) Choose(_ adversary.Decision, n int) int {
	if n <= 1 {
		return 0
	}
	if b.pos < len(b.script) {
		v := b.script[b.pos].picked
		b.pos++
		return v
	}
	b.script = append(b.script, choice{picked: 0, n: n})
	b.pos++
	return 0
}

// Next advances to the next script in lexicographic order and rewinds the
// replay position. It returns false when the space (the frozen-prefix
// subtree, for a sharded backtracker) is exhausted.
func (b *Backtracker) Next() bool {
	for len(b.script) > b.frozen {
		last := len(b.script) - 1
		b.script[last].picked++
		if b.script[last].picked < b.script[last].n {
			b.pos = 0
			return true
		}
		b.script = b.script[:last]
	}
	return false
}

// Script returns the current choice script (picked values only), which
// reproduces the execution when fed to a replaying chooser. The returned
// slice is a fresh exact-size copy, safe to retain.
func (b *Backtracker) Script() []int {
	out := make([]int, len(b.script))
	for i, c := range b.script {
		out[i] = c.picked
	}
	return out
}

// choices returns a copy of the raw script with domain sizes, used by the
// parallel explorer to derive frozen prefixes.
func (b *Backtracker) choices() []choice {
	return append([]choice(nil), b.script...)
}

// Replayer is a chooser that replays a fixed script (and picks 0 beyond its
// end); it reproduces an execution found by the explorer.
type Replayer struct {
	Values []int
	pos    int
}

// Choose implements adversary.Chooser; like the Backtracker it ignores the
// decision kind.
func (r *Replayer) Choose(_ adversary.Decision, n int) int {
	if r.pos >= len(r.Values) {
		return 0
	}
	v := r.Values[r.pos]
	r.pos++
	if v >= n {
		v = n - 1
	}
	return v
}

// Execution is one run produced by a RunFactory: the engine inputs plus the
// proposals needed to validate the consensus specification.
type Execution struct {
	Procs     []sim.Process
	Adv       sim.Adversary
	Cfg       sim.Config
	Proposals []sim.Value
}

// RunFactory builds a fresh execution whose nondeterminism is resolved by
// the given chooser. It is invoked once per explored execution.
//
// The explorer reuses one engine across the executions of a factory (via
// sim.Engine.Reset) whenever consecutive executions share a Config, so a
// factory should return the same Model/Horizon/Trace every call — which every
// fixed-scenario factory naturally does. Factories passed to ExploreParallel
// must additionally be safe for concurrent calls.
type RunFactory func(ch adversary.Chooser) Execution

// Validator inspects a finished run; returning an error flags a violation.
// engineErr is the engine's own error (e.g. horizon exhaustion), which the
// validator may tolerate or reject.
type Validator func(ex Execution, res *sim.Result, engineErr error) error

// Counterexample records a violating execution.
type Counterexample struct {
	Script []int
	Err    error
	Result *sim.Result
}

// Stats aggregates an exploration.
type Stats struct {
	// Executions is the number of distinct executions explored.
	Executions int
	// MaxRounds is the maximum run length seen.
	MaxRounds sim.Round
	// MaxDecideRound is the latest decision round seen in any execution.
	MaxDecideRound sim.Round
	// MaxFaults is the largest number of crashes in any execution.
	MaxFaults int
	// Counterexamples are the violations found (up to the configured limit).
	Counterexamples []Counterexample
}

// merge folds another Stats (a disjoint shard of the same space) into s,
// concatenating counterexamples in the order given.
func (s *Stats) merge(o Stats) {
	s.Executions += o.Executions
	if o.MaxRounds > s.MaxRounds {
		s.MaxRounds = o.MaxRounds
	}
	if o.MaxDecideRound > s.MaxDecideRound {
		s.MaxDecideRound = o.MaxDecideRound
	}
	if o.MaxFaults > s.MaxFaults {
		s.MaxFaults = o.MaxFaults
	}
	s.Counterexamples = append(s.Counterexamples, o.Counterexamples...)
}

// observe folds one execution's result into the aggregate.
func (s *Stats) observe(res *sim.Result) {
	s.Executions++
	if res.Rounds > s.MaxRounds {
		s.MaxRounds = res.Rounds
	}
	if m := res.MaxDecideRound(); m > s.MaxDecideRound {
		s.MaxDecideRound = m
	}
	if f := res.Faults(); f > s.MaxFaults {
		s.MaxFaults = f
	}
}

// ExploreOpts tunes an exploration.
type ExploreOpts struct {
	// Budget caps the number of executions (0 = unlimited). Exceeding it
	// returns ErrBudget alongside the partial stats.
	Budget int
	// MaxCounterexamples stops the search after this many violations
	// (default 1).
	MaxCounterexamples int
	// Workers sets the worker-pool size for ExploreParallel (0 = GOMAXPROCS).
	// Sequential Explore ignores it.
	Workers int
}

// engineRunner runs a sequence of executions, reusing one engine whenever the
// configs are compatible (same model/horizon/trace).
type engineRunner struct {
	eng *sim.Engine
	cfg sim.Config
}

// run executes ex, returning the result and the engine's run error; the
// third return is a construction error (bad processes/adversary), which is
// fatal to an exploration.
func (er *engineRunner) run(ex Execution) (*sim.Result, error, error) {
	if er.eng != nil &&
		ex.Cfg.Model == er.cfg.Model && ex.Cfg.Horizon == er.cfg.Horizon &&
		ex.Cfg.Trace == er.cfg.Trace {
		if err := er.eng.Reset(ex.Procs, ex.Adv); err != nil {
			return nil, nil, err
		}
	} else {
		eng, err := sim.NewEngine(ex.Cfg, ex.Procs, ex.Adv)
		if err != nil {
			return nil, nil, err
		}
		er.eng, er.cfg = eng, ex.Cfg
	}
	res, runErr := er.eng.Run()
	return res, runErr, nil
}

// Explore enumerates every execution generated by the factory under a
// backtracking chooser, validating each. It returns aggregate statistics and
// any counterexamples found.
func Explore(factory RunFactory, validate Validator, opts ExploreOpts) (Stats, error) {
	if opts.MaxCounterexamples <= 0 {
		opts.MaxCounterexamples = 1
	}
	bt := NewBacktracker()
	var er engineRunner
	var stats Stats
	for {
		if opts.Budget > 0 && stats.Executions >= opts.Budget {
			return stats, fmt.Errorf("%w (after %d executions)", ErrBudget, stats.Executions)
		}
		ex := factory(bt)
		res, runErr, err := er.run(ex)
		if err != nil {
			return stats, fmt.Errorf("check: building engine: %w", err)
		}
		stats.observe(res)
		if verr := validate(ex, res, runErr); verr != nil {
			stats.Counterexamples = append(stats.Counterexamples, Counterexample{
				Script: bt.Script(),
				Err:    verr,
				Result: res,
			})
			if len(stats.Counterexamples) >= opts.MaxCounterexamples {
				return stats, nil
			}
		}
		if !bt.Next() {
			return stats, nil
		}
	}
}
