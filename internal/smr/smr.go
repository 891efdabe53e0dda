// Package smr builds the application the paper's introduction motivates:
// fault-tolerant state machine replication. A replicated log commits
// commands slot by slot, each slot decided by an independent
// uniform-consensus instance; crashes persist across slots (a replica that
// dies before slot s is dead for every later slot). Serve runs the log as a
// pipelined service fed by a workload generator.
//
// Running the log over the paper's extended-model algorithm commits a slot
// per synchronous round in the common failure-free case; over the classic
// early-stopping baseline every slot costs at least two rounds. ExampleServe
// quantifies the resulting throughput gap — the system-level payoff of the
// extended model's f+1 bound.
package smr

import (
	"errors"
	"fmt"

	"repro/internal/consensus/earlystop"
	"repro/internal/core"
	"repro/internal/sim"
)

// Protocol selects the per-slot consensus algorithm.
type Protocol string

// Supported per-slot protocols.
const (
	// ProtocolCRW uses the paper's extended-model algorithm.
	ProtocolCRW Protocol = "crw"
	// ProtocolEarlyStop uses the classic early-stopping baseline.
	ProtocolEarlyStop Protocol = "earlystop"
)

// CommandIDBits is the width of the replica-id field in a Command encoding:
// replica ids occupy the low 20 bits, slots the bits above. The split keeps
// the encoding collision-free for up to 2^20-1 replicas and 2^42 slots —
// the scale track's n=4096 sits far inside the id field, and sim.NoValue
// (-1<<62) can never be produced.
const CommandIDBits = 20

// maxCommandSlot bounds the slot field so the encoding stays positive.
const maxCommandSlot = 1<<(62-CommandIDBits) - 1

// Command returns the canonical command value replica id proposes for a
// slot: a collision-free encoding of (slot, replica) with the replica id in
// the low CommandIDBits bits. Distinct (slot, id) pairs always map to
// distinct values — the earlier slot*1000+id encoding aliased
// Command(s, 1000) with Command(s+1, 0) once replica ids reached 1000.
// Out-of-range arguments are programming errors and panic.
func Command(slot int, id sim.ProcID) sim.Value {
	if id < 0 || int64(id) >= 1<<CommandIDBits {
		panic(fmt.Sprintf("smr: replica id %d outside the %d-bit command id field", id, CommandIDBits))
	}
	if slot < 0 || int64(slot) > maxCommandSlot {
		panic(fmt.Sprintf("smr: slot %d outside the command slot field (max %d)", slot, int64(maxCommandSlot)))
	}
	return sim.Value(int64(slot)<<CommandIDBits | int64(id))
}

// slotAdversary keeps dead replicas dead: they crash at the start of the
// instance sending nothing — indistinguishable, within one instance, from
// having crashed earlier. perm maps the instance's logical process ids to
// physical replica ids (identity without leader rotation).
type slotAdversary struct {
	dead map[sim.ProcID]bool
	perm []sim.ProcID
}

func (a *slotAdversary) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if r == 1 && a.dead[a.perm[p-1]] {
		return true, sim.NoDelivery(plan)
	}
	return false, sim.CrashOutcome{}
}

// permutation orders the physical replicas for one slot: identity normally;
// with leader rotation, live replicas first (in id order) and dead ones
// last, so a live replica holds the p1 role.
func permutation(n int, dead map[sim.ProcID]bool, rotate bool) []sim.ProcID {
	perm := make([]sim.ProcID, 0, n)
	if !rotate {
		for id := 1; id <= n; id++ {
			perm = append(perm, sim.ProcID(id))
		}
		return perm
	}
	for id := 1; id <= n; id++ {
		if !dead[sim.ProcID(id)] {
			perm = append(perm, sim.ProcID(id))
		}
	}
	for id := 1; id <= n; id++ {
		if dead[sim.ProcID(id)] {
			perm = append(perm, sim.ProcID(id))
		}
	}
	return perm
}

// agreedValue extracts the single agreed decision of one slot's instance, or
// an error on divergence, an undecided instance, or a decision that is none
// of the slot's proposals (validity).
func agreedValue(out *sim.Result, proposals []sim.Value) (sim.Value, error) {
	var committed sim.Value
	first := true
	for _, v := range out.Decisions() {
		if first {
			committed = v
			first = false
		} else if v != committed {
			return 0, fmt.Errorf("divergent decisions %s", out.DecisionsString())
		}
	}
	if first {
		return 0, errors.New("nobody decided")
	}
	for _, p := range proposals {
		if p == committed {
			return committed, nil
		}
	}
	return 0, fmt.Errorf("decided %d, which no replica proposed", int64(committed))
}

// buildInstance constructs one slot's consensus instance over proposals.
func buildInstance(protocol Protocol, bits int, proposals []sim.Value) ([]sim.Process, sim.Model, sim.Round) {
	n := len(proposals)
	if protocol == ProtocolEarlyStop {
		t := n - 1
		return earlystop.NewSystem(proposals, t, bits), sim.ModelClassic, sim.Round(t + 2)
	}
	return core.NewSystem(proposals, core.Options{Bits: bits}), sim.ModelExtended, sim.Round(n + 2)
}
