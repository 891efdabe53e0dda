// Package protocol is the one place that maps a protocol choice onto the
// system under test: which processes run, in which model, up to which
// horizon, under which resilience t, and which decision-round bound a run is
// judged against. agree.Run, Sweep, Fuzz, RunScenarios and Explore and the
// E-series explorer all build their systems here, so a scenario, a fuzz
// campaign and a sweep of the same protocol cannot disagree on what they run
// or how it is judged.
package protocol

import (
	"errors"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/consensus/earlystop"
	"repro/internal/consensus/floodset"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simulate"
)

// The implemented protocols.
const (
	// CRW is the paper's rotating-coordinator algorithm for the extended
	// synchronous model; it decides by round f+1 (Theorem 1).
	CRW = "crw"
	// EarlyStop is the classic-model early-stopping baseline; it decides by
	// round min(f+2, t+1).
	EarlyStop = "earlystop"
	// FloodSet is the classic FloodSet baseline; it decides at round t+1.
	FloodSet = "floodset"
)

// Spec describes one system under test.
type Spec struct {
	// Protocol is CRW, EarlyStop or FloodSet; "" means CRW.
	Protocol string
	// N is the number of processes.
	N int
	// T is the resilience bound of the classic baselines, 0 <= t < n.
	// Resolve turns 0 into n-1. CRW's construction and bound ignore it.
	T int
	// Bits is the proposal bit width b of Theorem 2's accounting (0 = 64);
	// Resolve rejects a negative width.
	Bits int
	// OrderAscending is the ascending-commit-order ablation (CRW only): the
	// f+1 bound falls.
	OrderAscending bool
	// CommitAsData is the commit-as-data ablation (CRW only): the commit
	// travels in the data step of the classic model, and uniform agreement
	// falls.
	CommitAsData bool
	// SimulateOnClassic runs CRW through the Section 2.2 simulation on the
	// classic model (CRW only).
	SimulateOnClassic bool
}

// Resolve validates the spec and fills in its defaults: the protocol name,
// and t = 0 as n-1. A t outside [0, n) or a negative bit width is an error,
// not a default: the run would otherwise use a value the caller never gave.
// Every other method expects a resolved spec.
func (s Spec) Resolve() (Spec, error) {
	if s.N < 1 {
		return s, errors.New("N must be at least 1")
	}
	switch s.Protocol {
	case "":
		s.Protocol = CRW
	case CRW:
	case EarlyStop, FloodSet:
		if s.OrderAscending || s.CommitAsData {
			return s, errors.New("the ablations apply to the CRW protocol only")
		}
		if s.SimulateOnClassic {
			return s, errors.New("SimulateOnClassic applies to the CRW protocol only")
		}
	default:
		return s, fmt.Errorf("unknown protocol %q", s.Protocol)
	}
	if s.T < 0 || s.T >= s.N {
		return s, fmt.Errorf("T=%d is outside [0, N) = [0, %d) (0 selects N-1)", s.T, s.N)
	}
	if s.Bits < 0 {
		return s, fmt.Errorf("Bits=%d is negative (0 selects 64)", s.Bits)
	}
	if s.T == 0 {
		s.T = s.N - 1
	}
	return s, nil
}

// Systems holds the storage of one system per protocol for reuse: each
// Build resets the protocol's system in place, growing it only past the
// largest size it has held. A harness worker keeps one Systems for all its
// executions; a one-shot caller keeps one on its stack. The zero value is
// ready to use.
type Systems struct {
	crw core.System
	es  earlystop.System
	fs  floodset.System
}

// Build constructs the spec's processes in sys, proposals[i] being the
// proposal of p_{i+1}, together with the model and the horizon they run in.
// The processes the previous Build of the same protocol into sys returned
// become the new instance's, so that run must be finished with.
func (s Spec) Build(sys *Systems, proposals []sim.Value) ([]sim.Process, sim.Model, sim.Round) {
	switch s.Protocol {
	case EarlyStop:
		return sys.es.Reset(proposals, s.T, s.Bits), sim.ModelClassic, sim.Round(s.T + 2)
	case FloodSet:
		return sys.fs.Reset(proposals, s.T, s.Bits), sim.ModelClassic, sim.Round(s.T + 2)
	}
	opts := core.Options{Bits: s.Bits, CommitAsData: s.CommitAsData}
	if s.OrderAscending {
		opts.Order = core.OrderAscending
	}
	procs, horizon := sys.crw.Reset(proposals, opts), sim.Round(s.N+2)
	switch {
	case s.SimulateOnClassic:
		return simulate.OnClassic(procs), sim.ModelClassic, simulate.MicroRounds(horizon, s.N)
	case s.CommitAsData:
		return procs, sim.ModelClassic, horizon
	}
	return procs, sim.ModelExtended, horizon
}

// Bound returns the latest round a process of the spec may decide in when f
// processes crash: f+1 for CRW, min(f+2, t+1) for EarlyStop and t+1 for
// FloodSet. Under SimulateOnClassic it counts macro rounds. The bounds are
// crash-model theorems; callers judging omission or timing faults pass no
// bound instead.
func (s Spec) Bound() func(f int) sim.Round {
	switch s.Protocol {
	case EarlyStop:
		return check.BoundClassic(s.T)
	case FloodSet:
		bound := sim.Round(s.T + 1)
		return func(int) sim.Round { return bound }
	}
	return check.BoundFPlus1
}

// Explorer returns the constructor of the exhaustive explorer's execution
// factories for the spec: p_{i+1} proposes 100+i, and the explorer's chooser
// drives an adversary that may crash up to crashes processes and, when
// omissions > 0, inject up to that many omission events; obs, when
// non-nil, is told of every fault it injects. Each factory owns one Systems,
// one proposal vector and one chooser adversary, and builds every execution
// in them: it re-points the adversary at the execution's chooser and resets
// it, then builds the processes.
func (s Spec) Explorer(crashes, omissions int, obs adversary.Observer) func() check.RunFactory {
	return func() check.RunFactory {
		var sys Systems
		props := make([]sim.Value, s.N)
		for i := range props {
			props[i] = sim.Value(100 + i)
		}
		// Crash-only exploration keeps a non-Omitter adversary: the engine
		// then skips the omission machinery.
		tree := adversary.NewFromChooserWithOmissions(nil, crashes, sim.Round(s.N), omissions, s.N)
		tree.Observe = obs
		var adv sim.Adversary = &tree.FromChooser
		if omissions > 0 {
			adv = tree
		}
		return func(ch adversary.Chooser) check.Execution {
			tree.C = ch
			tree.Reset()
			procs, model, horizon := s.Build(&sys, props)
			return check.Execution{Procs: procs, Adv: adv, Cfg: sim.Config{Model: model, Horizon: horizon}, Proposals: props}
		}
	}
}

// Explore model-checks every execution Explorer(crashes, omissions)
// enumerates, sharded across opts.Workers when parallel is set. Each is
// judged by Validator with the spec's round bound, which is dropped when
// omissions are enumerated: the bounds are crash-model theorems.
func (s Spec) Explore(crashes, omissions int, parallel bool, opts check.ExploreOpts) (check.Stats, error) {
	bound := s.Bound()
	if omissions > 0 {
		bound = nil
	}
	explore := check.Explore
	if parallel {
		explore = check.ExploreParallel
	}
	return explore(s.Explorer(crashes, omissions, nil), Validator(bound), opts)
}

// Validator is the explorer's verdict on one execution: the engine's own
// error, then uniform consensus, then, when bound is non-nil, the round
// bound.
func Validator(bound func(f int) sim.Round) check.Validator {
	return func(ex check.Execution, res *sim.Result, engineErr error) error {
		if engineErr != nil {
			return engineErr
		}
		if err := check.Consensus(ex.Proposals, res); err != nil {
			return err
		}
		if bound == nil {
			return nil
		}
		return check.RoundBound(res, bound)
	}
}
