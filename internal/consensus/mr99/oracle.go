package mr99

import (
	"sort"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// GSTOracle is the standard ◇S behaviour: before round GST the failure
// detector is arbitrary (modelled as: every process suspects every
// coordinator), from round GST on it is accurate (a process suspects the
// coordinator if and only if it has crashed). Crashes happen at scripted
// rounds. AUX quorums are the lowest-id n-t alive senders, favouring
// determinism.
//
// With this oracle a run decides in the first round r >= GST whose
// coordinator is alive — the asynchronous analog of the paper's "decide in
// one round once the coordinator is not suspected".
type GSTOracle struct {
	// GST is the first round with an accurate failure detector (>= 1).
	GST int
	// Crashes maps a process to the round before which it crashes.
	Crashes map[sim.ProcID]int
}

// CrashesBefore implements Oracle.
func (o *GSTOracle) CrashesBefore(p sim.ProcID, r int) bool {
	cr, ok := o.Crashes[p]
	return ok && r >= cr
}

// ReceivesEstimate implements Oracle.
func (o *GSTOracle) ReceivesEstimate(_ sim.ProcID, r int, coordAlive bool) bool {
	if !coordAlive {
		return false
	}
	return r >= o.GST
}

// AuxQuorum implements Oracle: the lowest-id n-t alive senders.
func (o *GSTOracle) AuxQuorum(_ sim.ProcID, _ int, senders []sim.ProcID, need int) []sim.ProcID {
	sorted := append([]sim.ProcID(nil), senders...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[:need]
}

// ChooserOracle resolves every asynchronous choice through a Chooser, making
// MR99 runs exhaustively explorable like the synchronous engines. To keep
// the space finite it enforces a GST discipline: from round GST on, the
// failure detector is accurate and quorums are canonical (lowest ids), so
// every run decides shortly after GST.
//
// Its choices reach the chooser as adversary decisions: a crash is a
// CrashGate, the estimate reaching a process is a DataBit and a quorum
// member is a SubsetBit. The backtracking chooser ignores the kinds.
type ChooserOracle struct {
	C adversary.Chooser
	// T is the crash budget.
	T int
	// GST bounds the chaotic prefix (chooser-driven suspicion and quorums
	// happen only in rounds < GST).
	GST int

	crashes int
}

// CrashesBefore implements Oracle: chooser-driven within budget, only during
// the chaotic prefix.
func (o *ChooserOracle) CrashesBefore(_ sim.ProcID, r int) bool {
	if o.crashes >= o.T || r >= o.GST {
		return false
	}
	if o.C.Choose(adversary.CrashGate, 2) == 1 {
		o.crashes++
		return true
	}
	return false
}

// ReceivesEstimate implements Oracle.
func (o *ChooserOracle) ReceivesEstimate(_ sim.ProcID, r int, coordAlive bool) bool {
	if r >= o.GST {
		return coordAlive
	}
	// Pre-GST: a crashed coordinator's messages may or may not arrive; an
	// alive coordinator may be falsely suspected. Either way both outcomes
	// are legal.
	return o.C.Choose(adversary.DataBit, 2) == 1
}

// AuxQuorum implements Oracle: pre-GST the quorum is an arbitrary
// chooser-selected combination; post-GST it is canonical.
func (o *ChooserOracle) AuxQuorum(p sim.ProcID, r int, senders []sim.ProcID, need int) []sim.ProcID {
	sorted := append([]sim.ProcID(nil), senders...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if r >= o.GST || len(sorted) == need {
		return sorted[:need]
	}
	// Choose a size-need subset: walk the sorted senders, keeping track of
	// how many must still be taken.
	out := make([]sim.ProcID, 0, need)
	remaining := need
	for i, s := range sorted {
		left := len(sorted) - i
		if left == remaining {
			out = append(out, sorted[i:]...)
			break
		}
		if remaining > 0 && o.C.Choose(adversary.SubsetBit, 2) == 1 {
			out = append(out, s)
			remaining--
		}
	}
	return out
}
