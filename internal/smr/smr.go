// Package smr builds the application the paper's introduction motivates:
// fault-tolerant state machine replication. A replicated log commits one
// command per slot, each slot decided by an independent uniform-consensus
// instance; crashes persist across slots (a replica that dies during slot s
// is dead for every later slot).
//
// Running the log over the paper's extended-model algorithm commits a slot
// per synchronous round in the common failure-free case; over the classic
// early-stopping baseline every slot costs at least two rounds. The smrlog
// example quantifies the resulting throughput gap — the
// system-level payoff of the extended model's f+1 bound.
package smr

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/consensus/earlystop"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/metrics"
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

// Config configures a replicated log run.
type Config struct {
	// N is the number of replicas.
	N int
	// Slots is the number of log slots to commit.
	Slots int
	// Protocol selects the consensus algorithm (default ProtocolCRW).
	Protocol Protocol
	// Bits is the command bit width (default 64).
	Bits int
	// CrashDuringSlot schedules replica crashes: replica -> slot index
	// (1-based) during which it crashes at the start of the instance.
	CrashDuringSlot map[sim.ProcID]int
	// RotateLeader renumbers replicas per slot so the lowest-id live replica
	// plays the p1 role of Figure 1. Without it the algorithm's static
	// p1-first rotation wastes one round per dead coordinator on every slot;
	// with it the log returns to one round per commit after a crash. This is
	// a beyond-the-paper engineering optimization: the renumbering is a pure
	// permutation of process identities, so Theorem 1's guarantees carry
	// over unchanged (the proofs never use the numeric value of an id, only
	// the total order).
	RotateLeader bool
}

// Result summarizes a replicated log run.
type Result struct {
	// Logs is the committed log of each replica (crashed replicas hold the
	// prefix they decided before dying).
	Logs map[sim.ProcID][]sim.Value
	// RoundsPerSlot is the synchronous rounds each slot's instance took.
	RoundsPerSlot []sim.Round
	// TotalRounds is the end-to-end round count.
	TotalRounds int
	// Counters accumulates communication over all slots.
	Counters metrics.Counters
	// Ledger accumulates the per-slot delivery ledgers, so the message
	// conservation law holds end-to-end over the whole log: every message any
	// slot's instance transmitted is in exactly one sink, even as crashes
	// persist across slot boundaries.
	Ledger metrics.Ledger
	// Crashed maps dead replicas to the slot they died in.
	Crashed map[sim.ProcID]int
	// EnginesBuilt and EngineReuses account for the run's harness cache:
	// every slot executes on the same reused engine, so a cfg.Slots-slot log
	// builds one engine and reuses it cfg.Slots-1 times. (The seed
	// constructed a fresh sim.Engine per slot — pure waste once every engine
	// became Reusable.)
	EnginesBuilt int
	// EngineReuses counts slots served by the already-built engine.
	EngineReuses int
}

// RoundsPerCommit returns the throughput metric: total rounds divided by
// committed slots.
func (r *Result) RoundsPerCommit() float64 {
	if len(r.RoundsPerSlot) == 0 {
		return 0
	}
	return float64(r.TotalRounds) / float64(len(r.RoundsPerSlot))
}

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

// slotAdversary kills replicas scheduled for this slot and keeps previously
// dead replicas dead (they crash at the start of the instance sending
// nothing — indistinguishable, within one instance, from having crashed
// earlier). perm maps the instance's logical process ids to physical replica
// ids (identity without leader rotation).
type slotAdversary struct {
	dead    map[sim.ProcID]bool
	killNow map[sim.ProcID]bool
	perm    []sim.ProcID
}

func (a *slotAdversary) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	phys := a.perm[p-1]
	if r == 1 && (a.dead[phys] || a.killNow[phys]) {
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

// Run executes the replicated log and validates per-slot agreement. Every
// slot runs on one engine drawn from a per-run harness.Cache — the engines
// are all Reusable, so the log pays one engine construction for cfg.Slots
// instances instead of one per slot (the seed's fresh sim.NewEngine per slot
// bypassed the reuse path entirely).
func Run(cfg Config) (*Result, error) {
	if cfg.N < 1 {
		return nil, errors.New("smr: need at least one replica")
	}
	if cfg.Slots < 1 {
		return nil, errors.New("smr: need at least one slot")
	}
	if cfg.Protocol == "" {
		cfg.Protocol = ProtocolCRW
	}
	if cfg.Bits <= 0 {
		cfg.Bits = 64
	}
	res := &Result{
		Logs:    map[sim.ProcID][]sim.Value{},
		Crashed: map[sim.ProcID]int{},
	}
	dead := map[sim.ProcID]bool{}
	cache := harness.NewCache()
	defer cache.Close()

	for slot := 1; slot <= cfg.Slots; slot++ {
		killNow := map[sim.ProcID]bool{}
		for id, s := range cfg.CrashDuringSlot {
			if s == slot && !dead[id] {
				killNow[id] = true
			}
		}
		if len(dead)+len(killNow) >= cfg.N {
			return res, fmt.Errorf("smr: all replicas dead by slot %d", slot)
		}

		perm := permutation(cfg.N, dead, cfg.RotateLeader)
		proposals := make([]sim.Value, cfg.N)
		for i := range proposals {
			proposals[i] = Command(slot, perm[i])
		}
		procs, model, horizon := buildInstance(cfg, proposals)
		adv := &slotAdversary{dead: dead, killNow: killNow, perm: perm}
		eng, err := cache.Get(harness.KindDeterministic)
		if err != nil {
			return res, fmt.Errorf("smr: slot %d: %w", slot, err)
		}
		out, err := eng.Run(harness.Job{Model: model, Horizon: horizon, Procs: procs, Adv: adv})
		if err != nil {
			return res, fmt.Errorf("smr: slot %d: %w", slot, err)
		}
		// The harness adapter audited the budget-free laws (conservation,
		// ledger/counter consistency); the slot's crash budget is log-level
		// knowledge the engine never sees, so its law is audited here: exactly
		// the replicas dead or dying this slot, and nothing omissive.
		if aerr := laws.AuditBudget(out, laws.Budget{Crashes: len(dead) + len(killNow), Omissive: 0}); aerr != nil {
			return res, fmt.Errorf("smr: slot %d: %w", slot, aerr)
		}

		committed, err := agreedValue(out)
		if err != nil {
			return res, fmt.Errorf("smr: slot %d: %w", slot, err)
		}
		for id := range out.Decisions() {
			res.Logs[perm[id-1]] = append(res.Logs[perm[id-1]], committed)
		}
		res.RoundsPerSlot = append(res.RoundsPerSlot, out.Rounds)
		res.TotalRounds += int(out.Rounds)
		res.Counters.Merge(out.Counters)
		res.Ledger.Merge(out.Ledger)

		for id := range killNow {
			dead[id] = true
			res.Crashed[id] = slot
		}
	}
	stats := cache.Stats()
	res.EnginesBuilt, res.EngineReuses = stats.Built, stats.ReuseHits
	return res, nil
}

// agreedValue extracts the single agreed decision of one slot's instance, or
// an error on divergence or an undecided instance.
func agreedValue(out *sim.Result) (sim.Value, error) {
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
	return committed, nil
}

// buildInstance constructs one slot's consensus instance.
func buildInstance(cfg Config, proposals []sim.Value) ([]sim.Process, sim.Model, sim.Round) {
	switch cfg.Protocol {
	case ProtocolEarlyStop:
		t := cfg.N - 1
		return earlystop.NewSystem(proposals, t, cfg.Bits), sim.ModelClassic, sim.Round(t + 2)
	default:
		return core.NewSystem(proposals, core.Options{Bits: cfg.Bits}),
			sim.ModelExtended, sim.Round(cfg.N + 2)
	}
}

// Validate checks cross-replica log consistency: every pair of logs agrees
// on their common prefix (a dead replica's log is a prefix of the
// survivors'). The reference log is chosen deterministically — the longest
// log of the lowest replica id, so equal-length divergent logs produce the
// same error on every run instead of depending on map iteration order — and
// every log, including other logs of the reference's length, is compared
// element by element against it. A log longer than the reference is
// impossible by construction but rejected explicitly rather than trusted
// (the seed indexed ref[i] unchecked, which would have panicked there).
func Validate(res *Result) error {
	ids := make([]sim.ProcID, 0, len(res.Logs))
	for id := range res.Logs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var refID sim.ProcID
	var ref []sim.Value
	for _, id := range ids {
		if log := res.Logs[id]; len(log) > len(ref) {
			refID, ref = id, log
		}
	}
	for _, id := range ids {
		log := res.Logs[id]
		if len(log) > len(ref) {
			return fmt.Errorf("smr: replica %d holds %d slots, more than the longest log (%d)",
				id, len(log), len(ref))
		}
		for i, v := range log {
			if ref[i] != v {
				return fmt.Errorf("smr: replicas %d and %d diverge at slot %d: %d vs %d",
					id, refID, i+1, int64(v), int64(ref[i]))
			}
		}
	}
	return nil
}
