package check

import (
	"fmt"

	"repro/internal/sim"
)

// Worst is the result of a worst-schedule search: the choice script of the
// execution that maximizes the latest decision round, together with that
// round and the number of crashes the schedule uses.
//
// This makes the tightness half of the paper's optimality claim
// constructive: rather than asserting "some execution needs f+1 rounds", the
// search returns the execution. For the faithful algorithm the result always
// matches the coordinator-killer schedule from the proof of Theorem 4.
type Worst struct {
	Script      []int
	DecideRound sim.Round
	Faults      int
	Rounds      sim.Round
	Executions  int
}

// FindWorstSchedule enumerates all executions produced by a factory from
// newFactory and returns the one whose latest decision happens latest (ties
// broken by fewer faults, making the witness as economical as possible). Runs
// that violate the consensus spec or fail to finish are reported as errors: a
// worst-case search over a broken protocol is meaningless.
func FindWorstSchedule(newFactory func() RunFactory, opts ExploreOpts) (*Worst, error) {
	bt := NewBacktracker()
	worst := &Worst{}
	err := enumerate(new(sim.Engine), newFactory(), bt, within(opts.Budget, &worst.Executions),
		func(ex Execution, res *sim.Result, runErr error) error {
			worst.Executions++
			if runErr != nil {
				return fmt.Errorf("check: execution %v failed: %w", bt.Script(), runErr)
			}
			if err := Consensus(ex.Proposals, res); err != nil {
				return fmt.Errorf("check: execution %v violates consensus: %w", bt.Script(), err)
			}
			d := res.MaxDecideRound()
			if d > worst.DecideRound || (d == worst.DecideRound && len(worst.Script) == 0) {
				worst.Script = bt.Script() // already a fresh copy
				worst.DecideRound = d
				worst.Faults = res.Faults()
				worst.Rounds = res.Rounds
			}
			return nil
		})
	return worst, err
}
