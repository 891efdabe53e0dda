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

// NewBacktracker returns a chooser positioned at the all-zeros script, with
// room for the 64 choices that bound the proof-sized systems' scripts.
func NewBacktracker() *Backtracker { return &Backtracker{script: make([]choice, 0, 64)} }

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
func (b *Backtracker) Script() []int { return b.appendScript(make([]int, 0, len(b.script))) }

// appendScript overwrites dst with the current choice script. A dst too
// short is replaced by one of the backtracker's capacity, so a buffer kept
// across executions grows no more often than the backtracker does.
func (b *Backtracker) appendScript(dst []int) []int {
	if cap(dst) < len(b.script) {
		dst = make([]int, 0, cap(b.script))
	}
	dst = dst[:0]
	for _, c := range b.script {
		dst = append(dst, c.picked)
	}
	return dst
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

// RunFactory builds an execution whose nondeterminism is resolved by the
// given chooser. Each explorer walk, parallel worker and shard-probe phase
// makes its own factory and calls it from one goroutine only, so a factory
// may build every execution in storage it owns: the execution it returned
// last has finished running when it is called again.
type RunFactory func(ch adversary.Chooser) Execution

// Validator inspects a finished run; returning an error flags a violation.
// engineErr is the engine's own error (e.g. horizon exhaustion), which the
// validator may tolerate or reject.
type Validator func(ex Execution, res *sim.Result, engineErr error) error

// Counterexample records a violating execution: the choice script that
// replays it, its verdict and its result. Result is a clone, and Err a
// detached verdict (Detach), so both stay those of this execution while the
// explorer's engine runs the next ones.
type Counterexample struct {
	Script []int
	Err    error
	Result *sim.Result
}

// keep records the violating execution of script, whose result res the
// engine rewrites on its next run.
func keep(script []int, verr error, res *sim.Result) Counterexample {
	return Counterexample{Script: script, Err: Detach(verr), Result: res.Clone()}
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
	// Worst is the choice script of the slowest execution explored: the
	// first, in enumeration order, whose latest decision is MaxDecideRound.
	// A later execution deciding as late does not replace it, whatever its
	// faults. For the faithful algorithm it is the coordinator-killer
	// schedule that makes Theorem 4's f+1 bound tight.
	Worst []int
	// Workers is the number of workers the exploration ran on, 1 for the
	// sequential explorer.
	Workers int
}

// merge folds another Stats (a disjoint shard of the same space, later in
// enumeration order) into s, concatenating counterexamples in the order
// given; o's worst execution replaces s's only when it decides later.
func (s *Stats) merge(o Stats) {
	s.Executions += o.Executions
	if o.MaxRounds > s.MaxRounds {
		s.MaxRounds = o.MaxRounds
	}
	if o.Worst != nil && (s.Worst == nil || o.MaxDecideRound > s.MaxDecideRound) {
		s.MaxDecideRound, s.Worst = o.MaxDecideRound, o.Worst
	}
	if o.MaxFaults > s.MaxFaults {
		s.MaxFaults = o.MaxFaults
	}
	s.Counterexamples = append(s.Counterexamples, o.Counterexamples...)
}

// observe folds one execution's result, bt on its script, into the
// aggregate.
func (s *Stats) observe(res *sim.Result, bt *Backtracker) {
	s.Executions++
	if res.Rounds > s.MaxRounds {
		s.MaxRounds = res.Rounds
	}
	if m := res.MaxDecideRound(); m > s.MaxDecideRound || s.Worst == nil {
		s.MaxDecideRound, s.Worst = m, bt.appendScript(s.Worst)
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

// errDone ends an enumeration early and without an error: a visitor returns
// it once it has seen enough, a parallel admission check once the pool stops.
var errDone = errors.New("check: enumeration done")

// enumerate is the explorers' one enumeration loop. For each execution bt
// enumerates, it asks admit, builds the execution with factory, rearms eng
// for it, runs it and hands it to visit, with bt still on it so that
// bt.Script() names it; then it advances bt. It stops at the first error
// admit or visit returns (errDone stops it with a nil error), at an
// execution the engine rejects, or when bt is exhausted. A zero eng is ready
// to use.
func enumerate(eng *sim.Engine, factory RunFactory, bt *Backtracker, admit func() error,
	visit func(ex Execution, res *sim.Result, runErr error) error) error {
	for {
		err := admit()
		if err == nil {
			ex := factory(bt)
			if err := eng.ResetConfig(ex.Cfg, ex.Procs, ex.Adv); err != nil {
				return fmt.Errorf("check: building engine: %w", err)
			}
			res, runErr := eng.Run()
			err = visit(ex, res, runErr)
		}
		if err == errDone {
			return nil
		}
		if err != nil || !bt.Next() {
			return err
		}
	}
}

// within is the sequential walks' admission check: it refuses every
// execution after the first budget (0 = unlimited), counted by *executions.
func within(budget int, executions *int) func() error {
	return func() error {
		if budget > 0 && *executions >= budget {
			return fmt.Errorf("%w (after %d executions)", ErrBudget, *executions)
		}
		return nil
	}
}

// Explore enumerates every execution generated by a factory from newFactory
// under a backtracking chooser, validating each. It returns aggregate
// statistics and any counterexamples found.
func Explore(newFactory func() RunFactory, validate Validator, opts ExploreOpts) (Stats, error) {
	if opts.MaxCounterexamples <= 0 {
		opts.MaxCounterexamples = 1
	}
	bt := NewBacktracker()
	stats := Stats{Workers: 1}
	err := enumerate(new(sim.Engine), newFactory(), bt, within(opts.Budget, &stats.Executions),
		func(ex Execution, res *sim.Result, runErr error) error {
			stats.observe(res, bt)
			if verr := validate(ex, res, runErr); verr != nil {
				stats.Counterexamples = append(stats.Counterexamples, keep(bt.Script(), verr, res))
				if len(stats.Counterexamples) >= opts.MaxCounterexamples {
					return errDone
				}
			}
			return nil
		})
	return stats, err
}
