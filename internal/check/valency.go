package check

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Valency is the set of values decidable from an initial configuration (or
// from a constrained prefix of the execution), computed by exhausting every
// continuation. It is the executable counterpart of the valency notion the
// paper's lower-bound section borrows from FLP via Aguilera–Toueg
// (Theorem 3): a configuration is bivalent when both values remain reachable,
// univalent when the adversary can no longer influence the outcome.
type Valency struct {
	// Values is the sorted set of decidable values.
	Values []sim.Value
	// Executions is the number of continuations explored.
	Executions int
}

// Bivalent reports whether at least two different decisions are reachable.
func (v Valency) Bivalent() bool { return len(v.Values) >= 2 }

// String renders the valency set.
func (v Valency) String() string {
	if v.Bivalent() {
		return fmt.Sprintf("bivalent %v", v.Values)
	}
	if len(v.Values) == 1 {
		return fmt.Sprintf("univalent {%d}", int64(v.Values[0]))
	}
	return "undecided"
}

// ValencySet explores every execution generated by a factory from newFactory
// and returns the union of decided values. Runs that fail (engine error, no
// decision) are reported as errors: valency is only meaningful over a protocol
// whose every execution terminates.
func ValencySet(newFactory func() RunFactory, opts ExploreOpts) (Valency, error) {
	bt := NewBacktracker()
	var v Valency
	err := enumerate(new(sim.Engine), newFactory(), bt, within(opts.Budget, &v.Executions),
		func(_ Execution, res *sim.Result, runErr error) error {
			v.Executions++
			if runErr != nil {
				return fmt.Errorf("check: execution %v failed: %w", bt.Script(), runErr)
			}
			decided := false
			for _, o := range res.Procs {
				if o.DecideRound == 0 {
					continue
				}
				decided = true
				if i, found := slices.BinarySearch(v.Values, o.Value); !found {
					v.Values = slices.Insert(v.Values, i, o.Value)
				}
			}
			if !decided {
				return fmt.Errorf("check: execution %v decided nothing", bt.Script())
			}
			return nil
		})
	return v, err
}
