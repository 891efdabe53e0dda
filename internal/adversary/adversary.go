// Package adversary provides crash adversaries for the synchronous engines.
//
// An adversary decides, for every process and round, whether the process
// crashes during its send phase and — if it does — which of its data messages
// escape (an arbitrary subset, per the model) and how long a prefix of its
// ordered control sequence escapes.
//
// The package offers:
//
//   - None: the failure-free adversary.
//   - Script: explicit per-process crash plans (used to pin down the
//     worst-case scenarios from the paper's proofs).
//   - CoordinatorKiller: crashes the coordinator of each of the first F
//     rounds, the schedule that forces the paper's algorithm to its f+1
//     round bound.
//   - Random: seeded randomized fault injection.
//   - FromChooser: a generic adversary driven by a Chooser, the hook used by
//     the exhaustive explorer in internal/check to enumerate every schedule.
package adversary

import (
	"slices"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/sim"
)

// CtrlAll requests delivery of the full control sequence in a crash plan.
const CtrlAll = -1

// None is the failure-free adversary: no process ever crashes.
type None struct{}

// Crashes always reports no crash.
func (None) Crashes(sim.ProcID, sim.Round, sim.SendPlan) (bool, sim.CrashOutcome) {
	return false, sim.CrashOutcome{}
}

// CrashPlan describes one scripted crash.
type CrashPlan struct {
	// Round is the round in which the process crashes (during its send
	// phase).
	Round sim.Round
	// DeliverAllData delivers every data message of the plan when true and
	// none when false, unless DataMask overrides it.
	DeliverAllData bool
	// DataMask, if non-nil, selects exactly which data messages escape; it is
	// matched positionally against the plan (missing positions are false).
	DataMask []bool
	// CtrlPrefix is the number of control messages (a prefix of the ordered
	// sequence) that escape; CtrlAll delivers all of them. Values beyond the
	// sequence length are clamped.
	CtrlPrefix int
}

// Script crashes processes according to explicit plans. Processes without a
// plan never crash.
type Script struct {
	Plans map[sim.ProcID]CrashPlan
}

// NewScript builds a Script adversary from plans keyed by process.
func NewScript(plans map[sim.ProcID]CrashPlan) *Script {
	return &Script{Plans: plans}
}

// Crashes implements sim.Adversary.
func (s *Script) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	cp, ok := s.Plans[p]
	if !ok || cp.Round != r {
		return false, sim.CrashOutcome{}
	}
	return true, cp.outcome(plan)
}

// outcome materializes the plan's truncation against a concrete send plan.
// The delivery mask is shared, never copied, whenever it can be: all-or-
// nothing delivery is a view of an immutable table, and a DataMask that
// covers the plan is handed out as a capped view of itself. Only a DataMask
// shorter than the plan is padded into a fresh mask. Engines treat
// DataDelivered as read-only (the sim.CrashOutcome contract).
func (cp CrashPlan) outcome(plan sim.SendPlan) sim.CrashOutcome {
	k := len(plan.Data)
	var mask []bool
	switch {
	case cp.DataMask != nil && len(cp.DataMask) >= k:
		mask = cp.DataMask[:k:k]
	case cp.DataMask != nil:
		mask = make([]bool, k)
		copy(mask, cp.DataMask)
	case cp.DeliverAllData:
		mask = constMask(&trueMasks, true, k)
	default:
		mask = constMask(&falseMasks, false, k)
	}
	prefix := cp.CtrlPrefix
	if prefix == CtrlAll || prefix > len(plan.Control) {
		prefix = len(plan.Control)
	}
	if prefix < 0 {
		prefix = 0
	}
	return sim.CrashOutcome{DataDelivered: mask, CtrlPrefix: prefix}
}

// trueMasks and falseMasks are grow-only tables of constant delivery masks. A
// published table is never written again, so crash outcomes on any
// goroutine share views of it.
var trueMasks, falseMasks atomic.Pointer[[]bool]

// constMask returns a capped view of k entries of the constant table tab,
// growing the table (publishing a new one by compare-and-swap) when it is
// shorter than k.
func constMask(tab *atomic.Pointer[[]bool], v bool, k int) []bool {
	for {
		cur := tab.Load()
		if cur != nil && len(*cur) >= k {
			return (*cur)[:k:k]
		}
		m := max(k, 64)
		if cur != nil {
			m = max(m, 2*len(*cur))
		}
		next := slices.Repeat([]bool{v}, m)
		if tab.CompareAndSwap(cur, &next) {
			return next[:k:k]
		}
	}
}

// CoordinatorKiller crashes the coordinator p_r of round r, for every
// r = 1..F. With DeliverAllData=false and CtrlPrefix=0 it is the schedule
// that forces the paper's algorithm to run for exactly F+1 rounds (the
// matching execution for the lower bound of Section 5).
type CoordinatorKiller struct {
	// F is the number of coordinators to crash (the paper's f).
	F int
	// DeliverAllData controls whether the dying coordinator's data messages
	// escape.
	DeliverAllData bool
	// CtrlPrefix is the escaped control prefix length (CtrlAll for all).
	CtrlPrefix int
}

// Crashes implements sim.Adversary: p crashes in round r iff p == p_r and
// r <= F.
func (k CoordinatorKiller) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if int(r) > k.F || sim.ProcID(r) != p {
		return false, sim.CrashOutcome{}
	}
	cp := CrashPlan{Round: r, DeliverAllData: k.DeliverAllData, CtrlPrefix: k.CtrlPrefix}
	return true, cp.outcome(plan)
}

// Random injects crashes at random: each alive process crashes in each round
// with probability CrashProb, as long as fewer than MaxCrashes processes have
// crashed. The escaped data subset and control prefix are uniform.
//
// Random draws from the seed's SplitMix64 stream (internal/rng), so
// randomized experiments are reproducible on every platform and Go release.
type Random struct {
	rng        rng.Stream
	CrashProb  float64
	MaxCrashes int
	crashes    int
}

// NewRandom builds a seeded random adversary that crashes at most maxCrashes
// processes, each alive process crashing with probability p per round.
func NewRandom(seed int64, p float64, maxCrashes int) *Random {
	return &Random{rng: rng.New(seed), CrashProb: p, MaxCrashes: maxCrashes}
}

// Crashes implements sim.Adversary. The crash point is drawn first: either
// during the data step (random subset escapes, no control message) or during
// the control step (all data escaped, random prefix) — never a mix, since the
// two steps are sequential and a process crashes at a single point in time.
func (a *Random) Crashes(_ sim.ProcID, _ sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if a.crashes >= a.MaxCrashes || a.rng.Float64() >= a.CrashProb {
		return false, sim.CrashOutcome{}
	}
	a.crashes++
	mask := make([]bool, len(plan.Data))
	if len(plan.Control) > 0 && a.rng.Intn(2) == 1 {
		// Crash during the control step: the data step completed.
		for i := range mask {
			mask[i] = true
		}
		return true, sim.CrashOutcome{DataDelivered: mask, CtrlPrefix: a.rng.Intn(len(plan.Control) + 1)}
	}
	// Crash during the data step: arbitrary subset, no control messages.
	for i := range mask {
		mask[i] = a.rng.Intn(2) == 1
	}
	return true, sim.CrashOutcome{DataDelivered: mask, CtrlPrefix: 0}
}

// Crashed returns how many processes the adversary has crashed so far.
func (a *Random) Crashed() int { return a.crashes }

// Staged composes two adversaries around a round boundary: First controls
// rounds 1..Until, Rest controls every later round. It is used by the
// valency analysis (internal/check) to pin down the behaviour of a prefix of
// the execution — e.g. "round 1 is crash-free" — and quantify over all
// continuations.
type Staged struct {
	Until sim.Round
	First sim.Adversary
	Rest  sim.Adversary
}

// Crashes implements sim.Adversary.
//
// Staged is deliberately NOT a sim.Omitter: its only users compose
// crash-only adversaries (the valency analysis), and implementing Omits
// would route those exhaustive searches through the engines' omission
// machinery for nothing. Compose omission stages with Combine instead.
func (s Staged) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if r <= s.Until {
		return s.First.Crashes(p, r, plan)
	}
	return s.Rest.Crashes(p, r, plan)
}

// Chooser resolves nondeterministic choices. Choose(n) returns a value in
// [0, n). A backtracking Chooser turns the engine into an exhaustive model
// checker (see internal/check).
type Chooser interface {
	Choose(n int) int
}

// FromChooser is a generic adversary whose every decision is delegated to a
// Chooser. Each round, for each alive process (while the crash budget T is
// not exhausted), it asks the chooser whether to crash it; on a crash it asks
// for the escaped data subset (one binary choice per message) and the control
// prefix length.
//
// MaxCrashRound bounds the rounds in which crashes may occur, which keeps the
// exhaustive search space finite; crashes after the last interesting round
// cannot affect decisions that already happened.
type FromChooser struct {
	C Chooser
	// T is the crash budget (the model's resilience bound t).
	T int
	// MaxCrashRound is the last round a crash may occur in (0 = no limit).
	MaxCrashRound sim.Round

	crashes int
}

// NewFromChooser builds a chooser-driven adversary with crash budget t and
// crash horizon maxRound.
func NewFromChooser(c Chooser, t int, maxRound sim.Round) *FromChooser {
	return &FromChooser{C: c, T: t, MaxCrashRound: maxRound}
}

// Crashes implements sim.Adversary. The choice tree per crash is: crash
// point (data step vs control step, when a control sequence exists), then —
// for a data-step crash — one binary choice per data message, or — for a
// control-step crash — the escaped prefix length (with full data delivery).
// This enumerates exactly the legal outcomes of the model, no more.
func (a *FromChooser) Crashes(_ sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if a.crashes >= a.T {
		return false, sim.CrashOutcome{}
	}
	if a.MaxCrashRound > 0 && r > a.MaxCrashRound {
		return false, sim.CrashOutcome{}
	}
	if a.C.Choose(2) == 0 {
		return false, sim.CrashOutcome{}
	}
	a.crashes++
	mask := make([]bool, len(plan.Data))
	if len(plan.Control) > 0 && a.C.Choose(2) == 1 {
		// Crash during the control step: all data escaped, prefix chosen.
		for i := range mask {
			mask[i] = true
		}
		return true, sim.CrashOutcome{DataDelivered: mask, CtrlPrefix: a.C.Choose(len(plan.Control) + 1)}
	}
	// Crash during the data step: arbitrary subset, no control messages.
	for i := range mask {
		mask[i] = a.C.Choose(2) == 1
	}
	return true, sim.CrashOutcome{DataDelivered: mask, CtrlPrefix: 0}
}

// Crashed returns how many processes have been crashed so far.
func (a *FromChooser) Crashed() int { return a.crashes }

// maxEnumMsgs clamps the per-event enumeration width: only the first 16
// messages (or senders) of a step are omittable, which keeps the Choose
// domain within int range. Proof-sized systems never reach the clamp.
const maxEnumMsgs = 16

// OmittingFromChooser extends FromChooser with bounded-omission enumeration.
// It is a separate type — not a flag on FromChooser — so crash-only
// exploration keeps a non-Omitter adversary: the engines then skip the
// omission machinery entirely and the crash-model choice spaces (and the
// engine's allocation profile) are bit-identical to the pre-omission code.
type OmittingFromChooser struct {
	FromChooser
	// OmissionBudget is the maximum number of omission events the adversary
	// may inject.
	OmissionBudget int
	// Procs is the system size n, required for receive-omission enumeration.
	Procs int

	omitted int
}

// NewFromChooserWithOmissions builds a chooser-driven adversary that, beyond
// crashes, enumerates bounded-omission schedules for an n-process system: up
// to omitBudget omission events, each either a send omission (any non-empty
// subset of the round's messages suppressed) or a receive omission (any
// non-empty subset of senders blocked). This is what lets the exhaustive
// explorer search the omission fault model at proof sizes.
func NewFromChooserWithOmissions(c Chooser, t int, maxRound sim.Round, omitBudget, n int) *OmittingFromChooser {
	return &OmittingFromChooser{
		FromChooser:    FromChooser{C: c, T: t, MaxCrashRound: maxRound},
		OmissionBudget: omitBudget,
		Procs:          n,
	}
}

// Omits implements sim.Omitter. While budget remains, the choice tree per
// (process, round) is: omit or not; send vs receive omission (when both are
// possible); then the non-empty suppressed subset — of the round's
// data+control messages for a send omission, of the other processes for a
// receive omission. MaxCrashRound bounds omission events exactly like
// crashes.
func (a *OmittingFromChooser) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	if a.omitted >= a.OmissionBudget {
		return sim.Omission{}
	}
	if a.MaxCrashRound > 0 && r > a.MaxCrashRound {
		return sim.Omission{}
	}
	kSend := len(plan.Data) + len(plan.Control)
	if kSend > maxEnumMsgs {
		kSend = maxEnumMsgs
	}
	kRecv := a.Procs - 1
	if kRecv > maxEnumMsgs {
		kRecv = maxEnumMsgs
	}
	if kSend <= 0 && kRecv <= 0 {
		return sim.Omission{}
	}
	if a.C.Choose(2) == 0 {
		return sim.Omission{}
	}
	a.omitted++
	send := kSend > 0
	if send && kRecv > 0 {
		send = a.C.Choose(2) == 0
	}
	if send {
		// Send omission: a non-empty suppressed subset of the round's
		// messages, data positions first, then control positions.
		sub := a.C.Choose(1<<kSend-1) + 1
		om := sim.Omission{Data: allTrue(len(plan.Data)), Ctrl: allTrue(len(plan.Control))}
		for i := 0; i < kSend; i++ {
			if sub>>i&1 == 0 {
				continue
			}
			if i < len(plan.Data) {
				om.Data[i] = false
			} else {
				om.Ctrl[i-len(plan.Data)] = false
			}
		}
		return om
	}
	// Receive omission: a non-empty blocked subset of the other processes.
	sub := a.C.Choose(1<<kRecv-1) + 1
	recv := allTrue(a.Procs)
	idx := 0
	for q := 1; q <= a.Procs && idx < kRecv; q++ {
		if sim.ProcID(q) == p {
			continue
		}
		if sub>>idx&1 == 1 {
			recv[q-1] = false
		}
		idx++
	}
	return sim.Omission{Recv: recv}
}

// OmissionEvents returns how many omission events have been injected so far.
func (a *OmittingFromChooser) OmissionEvents() int { return a.omitted }
