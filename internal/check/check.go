// Package check validates consensus executions and exhaustively explores the
// space of crash schedules for small systems.
//
// The validators encode the uniform consensus specification of Section 3.1
// (validity, uniform agreement, termination) plus round-bound predicates for
// the theorems being reproduced (Theorem 1's f+1 bound, the classic
// min(f+2, t+1) bound).
//
// The explorer turns the deterministic engine into a bounded model checker:
// every nondeterministic choice of an execution (crash or not, escaped data
// subset, escaped control prefix) is resolved by a backtracking Chooser, and
// the explorer enumerates all choice sequences in lexicographic order. For
// the system sizes used in experiment E5 (n <= 5, t <= 2) this enumerates
// every execution of the model, which is exactly the quantification the
// paper's proofs (and its lower bound, Theorem 4) range over.
//
// Explore, ExploreParallel and ValencySet each visit the executions of one
// enumeration loop. They take a constructor of execution factories, not a
// factory: each sequential walk, each parallel worker and the shard-probe
// phase makes one factory and is its only caller, so a factory may build
// every execution in storage it owns. protocol.Spec's explorer factories
// reuse one system, proposal vector and adversary, so an exploration
// allocates per run, not per execution.
package check

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Violation errors returned by the validators.
var (
	ErrValidity    = errors.New("check: validity violated (decision not a proposal)")
	ErrAgreement   = errors.New("check: uniform agreement violated (two distinct decisions)")
	ErrTermination = errors.New("check: termination violated (surviving process never decided)")
	ErrRoundBound  = errors.New("check: decision round bound violated")
)

// Consensus validates the uniform consensus specification against a finished
// run: every decided value is a proposal; no two processes (correct or
// faulty) decided differently; every process that did not crash decided. A
// violation names the lowest offending process id. Neither a clean run nor
// an agreement violation allocates: the latter is rendered from res when
// read, so a caller keeping it past res's next rewrite keeps Detach of it.
func Consensus(proposals []sim.Value, res *sim.Result) error {
	for i, o := range res.Procs {
		if o.DecideRound != 0 && !slices.Contains(proposals, o.Value) {
			return fmt.Errorf("%w: p%d decided %d, proposals %v", ErrValidity, i+1, int64(o.Value), proposals)
		}
	}
	first, decided := sim.Value(0), false
	for _, o := range res.Procs {
		if o.DecideRound == 0 {
			continue
		}
		if decided && o.Value != first {
			return agreementError{res}
		}
		first, decided = o.Value, true
	}
	for i := range proposals {
		if i >= len(res.Procs) || res.Procs[i].CrashRound == 0 && res.Procs[i].DecideRound == 0 {
			return fmt.Errorf("%w: p%d alive after %d rounds", ErrTermination, i+1, res.Rounds)
		}
	}
	return nil
}

// agreementError is a uniform-agreement violation, rendered only when read:
// a shrinker replays thousands of violating runs and reads one verdict. It
// holds the run's result, which its engine rewrites on the next run
// (harness.Engine.Run), so the verdict reads that run only until then: a
// caller that keeps the verdict longer keeps Detach of it.
type agreementError struct{ res *sim.Result }

func (e agreementError) Error() string {
	return fmt.Sprintf("%v: decisions %v by %s", ErrAgreement, e.res.DistinctDecisions(), e.res.DecisionsString())
}

func (e agreementError) Unwrap() error { return ErrAgreement }

// Detach returns a verdict of Consensus ready to be kept past the next run
// of the engine whose result it judged: an agreement violation, which reads
// that result when rendered, is re-pointed at a clone of it. Every other
// verdict, nil included, is already rendered and comes back as is.
func Detach(err error) error {
	if e, ok := err.(agreementError); ok {
		return agreementError{e.res.Clone()}
	}
	return err
}

// DetachInto is Detach into storage the caller owns: an agreement violation
// is re-pointed at dst, overwritten with the result it read (dst's Procs
// storage reused), so the verdict reads dst until the caller rewrites it.
// Every other verdict comes back as is.
func DetachInto(err error, dst *sim.Result) error {
	if e, ok := err.(agreementError); ok {
		procs := dst.Procs
		*dst = *e.res
		dst.Procs = append(procs[:0], e.res.Procs...)
		return agreementError{dst}
	}
	return err
}

// RoundBound validates that no process decided after bound(f), where f is
// the number of crashes that occurred in the run. A violation names the
// lowest late process id. Pass core's f+1 bound as
// func(f int) sim.Round { return sim.Round(f + 1) }.
func RoundBound(res *sim.Result, bound func(f int) sim.Round) error {
	f := res.Faults()
	limit := bound(f)
	for i, o := range res.Procs {
		if o.DecideRound > limit {
			return fmt.Errorf("%w: p%d decided at round %d > bound %d (f=%d)",
				ErrRoundBound, i+1, o.DecideRound, limit, f)
		}
	}
	return nil
}

// BoundFPlus1 is Theorem 1's bound for the extended model.
func BoundFPlus1(f int) sim.Round { return sim.Round(f + 1) }

// BoundClassic returns the classic-model early-stopping bound min(f+2, t+1)
// for resilience t.
func BoundClassic(t int) func(f int) sim.Round {
	return func(f int) sim.Round {
		b := f + 2
		if t+1 < b {
			b = t + 1
		}
		return sim.Round(b)
	}
}
