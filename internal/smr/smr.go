// Package smr builds the application the paper's introduction motivates:
// fault-tolerant state machine replication. A replicated log commits
// commands slot by slot, each slot decided by an independent
// uniform-consensus instance; crashes persist across slots (a replica that
// dies before slot s is dead for every later slot). Serve runs the log as a
// pipelined service fed by a workload generator, in O(committed) memory.
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

	"repro/internal/protocol"
	"repro/internal/sim"
)

// Protocol selects the per-slot consensus algorithm.
type Protocol string

// Supported per-slot protocols.
const (
	// ProtocolCRW uses the paper's extended-model algorithm.
	ProtocolCRW Protocol = protocol.CRW
	// ProtocolEarlyStop uses the classic early-stopping baseline.
	ProtocolEarlyStop Protocol = protocol.EarlyStop
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
// having crashed earlier. dead is indexed by physical replica id - 1, and
// perm maps the instance's logical process ids to physical replica ids
// (identity without leader rotation). A service session builds one and
// refills both slices in place every slot.
type slotAdversary struct {
	dead []bool
	perm []sim.ProcID
}

func (a *slotAdversary) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if r == 1 && a.dead[a.perm[p-1]-1] {
		return true, sim.NoDelivery(plan)
	}
	return false, sim.CrashOutcome{}
}

// fillPermutation orders the physical replicas 1..len(perm) for one slot
// into perm: identity normally; with leader rotation, live replicas first
// (in id order) and dead ones last, so a live replica holds the p1 role.
// dead is indexed by replica id - 1.
func fillPermutation(perm []sim.ProcID, dead []bool, rotate bool) {
	k := 0
	for i := range perm {
		if !rotate || !dead[i] {
			perm[k] = sim.ProcID(i + 1)
			k++
		}
	}
	if rotate {
		for i := range perm {
			if dead[i] {
				perm[k] = sim.ProcID(i + 1)
				k++
			}
		}
	}
}

// leaderOf returns the replica holding the p1 role of the permutation
// fillPermutation would build, without building it.
func leaderOf(dead []bool, rotate bool) sim.ProcID {
	if rotate {
		for i, d := range dead {
			if !d {
				return sim.ProcID(i + 1)
			}
		}
	}
	return 1
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
