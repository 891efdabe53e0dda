// Package adversary provides the fault adversaries of the synchronous
// engines.
//
// A crash adversary decides, for every process and round, whether the
// process crashes during its send phase and — if it does — which of its data
// messages escape (an arbitrary subset, per the model) and how long a prefix
// of its ordered control sequence escapes. An omission adversary
// (sim.Omitter) additionally drops individual messages of processes that
// stay alive.
//
// The package offers:
//
//   - None: the failure-free adversary.
//   - Script: explicit per-process crash plans (used to pin down the
//     worst-case scenarios from the paper's proofs).
//   - CoordinatorKiller: crashes the coordinator of each of the first F
//     rounds, the schedule that forces the paper's algorithm to its f+1
//     round bound.
//   - Staged: one crash adversary up to a round, another after it.
//   - FromChooser: the model's fault-choice tree, every decision delegated
//     to a Chooser. It is the one tree for the exhaustive explorer in
//     internal/check (a backtracking Chooser enumerates every schedule), the
//     fuzzer in internal/fuzz and seeded random runs (NewRandom), which
//     sample it with a Seeded Chooser. OmittingFromChooser adds the
//     omission tree.
//   - RandomOmission: the lossy channel, every message lost independently.
//
// A scripted schedule of crashes and omissions together is a fault script
// (fuzz.Script), replayed by fuzz.Replayer.
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

// NewRandom builds the seeded random crash adversary: FromChooser driven by
// a Seeded chooser, so each alive process crashes with probability p per
// round while fewer than maxCrashes have crashed, and the escaped data
// subset or control prefix is uniform over the model's legal outcomes.
//
// It draws from the seed's SplitMix64 stream (internal/rng), so randomized
// experiments are reproducible on every platform and Go release.
func NewRandom(seed int64, p float64, maxCrashes int) *FromChooser {
	return NewFromChooser(&Seeded{Stream: rng.New(seed), CrashProb: p}, maxCrashes, 0)
}

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
// machinery for nothing.
func (s Staged) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if r <= s.Until {
		return s.First.Crashes(p, r, plan)
	}
	return s.Rest.Crashes(p, r, plan)
}

// Decision is the kind of choice the fault-choice tree asks its Chooser
// for. Enumerating choosers ignore it; the seeded chooser reads it to answer
// a gate with that gate's probability and every other choice uniformly.
type Decision uint8

const (
	// CrashGate: does the process crash this round? (1 = crash)
	CrashGate Decision = iota
	// ControlStep: does the crash fall in the control step? (1 = control
	// step: all data escaped; 0 = data step: no control message escapes)
	ControlStep
	// Prefix: how many control messages escape a control-step crash.
	Prefix
	// DataBit: does this data message escape a data-step crash? (1 =
	// escapes)
	DataBit
	// SendOmitGate: does the process send-omit this round? (1 = omit)
	SendOmitGate
	// RecvOmitGate: does the process receive-omit this round? (1 = omit)
	RecvOmitGate
	// SubsetBit: is this position of an omission subset dropped? (1 =
	// dropped)
	SubsetBit
)

// Chooser resolves nondeterministic choices. Choose(d, n) returns a value
// in [0, n) for a decision of kind d. A backtracking Chooser turns the
// engine into an exhaustive model checker (see internal/check); a Seeded one
// samples the same tree at random.
type Chooser interface {
	Choose(d Decision, n int) int
}

// Seeded is the seeded random Chooser. It answers each gate with 1 with the
// gate's probability, one Float64 draw (a gate whose probability is not
// positive stays shut without a draw), and every other decision uniformly,
// one Intn draw.
type Seeded struct {
	Stream rng.Stream
	// CrashProb, SendOmitProb and RecvOmitProb are the probabilities of the
	// CrashGate, SendOmitGate and RecvOmitGate decisions.
	CrashProb, SendOmitProb, RecvOmitProb float64
}

// Choose implements Chooser.
func (s *Seeded) Choose(d Decision, n int) int {
	var p float64
	switch d {
	case CrashGate:
		p = s.CrashProb
	case SendOmitGate:
		p = s.SendOmitProb
	case RecvOmitGate:
		p = s.RecvOmitProb
	default:
		return s.Stream.Intn(n)
	}
	if p > 0 && s.Stream.Float64() < p {
		return 1
	}
	return 0
}

// FromChooser is the model's fault-choice tree, every decision delegated to
// a Chooser. It is the one copy of that tree: the exhaustive explorer walks
// it with a backtracking chooser, and the fuzzer and seeded random runs
// sample it with a Seeded one. Each round, for each alive process (while
// the crash budget T is not exhausted), it asks whether to crash it; on a
// crash it asks for the crash point and then the escaped data subset (one
// binary choice per message) or the control prefix length.
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
	// Observe, if non-nil, is told of every fault the tree injects.
	Observe Observer

	crashes int
	masks   Masks // the run's outcome masks, one region per fault
}

// Masks is a grow-only arena of delivery masks for one execution. Each
// Carve returns a region that no other Carve of the execution shares, so
// the masks handed to an engine stay intact while the run lasts: lockstep
// shards read them outside the adversary guard while another shard's
// consult carves the next. Growing starts a new backing array and leaves
// the regions already carved where they are; Reset rewinds the arena for
// the next execution. The zero value is ready to use.
type Masks struct{ buf []bool }

// Carve returns a zeroed region of k entries, capped at its length.
func (m *Masks) Carve(k int) []bool {
	if cap(m.buf)-len(m.buf) < k {
		m.buf = make([]bool, 0, max(2*cap(m.buf), 2*k, 16))
	}
	n := len(m.buf)
	m.buf = m.buf[:n+k]
	region := m.buf[n : n+k : n+k]
	clear(region)
	return region
}

// Reset rewinds the arena: every region carved so far may be handed out
// again.
func (m *Masks) Reset() { m.buf = m.buf[:0] }

// Observer is told of each fault a FromChooser or OmittingFromChooser
// injects, with the outcome it hands the engine; the fuzzer records them as
// a replayable script. The outcome's masks are regions of the tree's arena:
// they must not be written, and an observer that keeps them past the tree's
// next Reset keeps a copy.
type Observer interface {
	ObserveCrash(p sim.ProcID, r sim.Round, out sim.CrashOutcome)
	ObserveOmission(p sim.ProcID, r sim.Round, om sim.Omission)
}

// NewFromChooser builds a chooser-driven adversary with crash budget t and
// crash horizon maxRound.
func NewFromChooser(c Chooser, t int, maxRound sim.Round) *FromChooser {
	return &FromChooser{C: c, T: t, MaxCrashRound: maxRound}
}

// Reset readies the tree for another execution: it forgets the crashes of
// the last one and rewinds the mask arena, keeping its configuration.
func (a *FromChooser) Reset() { a.crashes = 0; a.masks.Reset() }

// Crashes implements sim.Adversary. The choice tree per crash is: crash
// point (data step vs control step, when a control sequence exists), then —
// for a data-step crash — one binary choice per data message, or — for a
// control-step crash — the escaped prefix length (with full data delivery).
// This enumerates exactly the legal outcomes of the model, no more. Each
// crash's mask is its own region of the run's arena.
func (a *FromChooser) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if a.crashes >= a.T {
		return false, sim.CrashOutcome{}
	}
	if a.MaxCrashRound > 0 && r > a.MaxCrashRound {
		return false, sim.CrashOutcome{}
	}
	if a.C.Choose(CrashGate, 2) == 0 {
		return false, sim.CrashOutcome{}
	}
	a.crashes++
	out := sim.CrashOutcome{DataDelivered: a.masks.Carve(len(plan.Data))}
	if len(plan.Control) > 0 && a.C.Choose(ControlStep, 2) == 1 {
		// Crash during the control step: all data escaped, prefix chosen.
		for i := range out.DataDelivered {
			out.DataDelivered[i] = true
		}
		out.CtrlPrefix = a.C.Choose(Prefix, len(plan.Control)+1)
	} else {
		// Crash during the data step: arbitrary subset, no control messages.
		for i := range out.DataDelivered {
			out.DataDelivered[i] = a.C.Choose(DataBit, 2) == 1
		}
	}
	if a.Observe != nil {
		a.Observe.ObserveCrash(p, r, out)
	}
	return true, out
}

// OmittingFromChooser extends FromChooser with the omission tree. It is a
// separate type — not a flag on FromChooser — so crash-only exploration
// keeps a non-Omitter adversary: the engines then skip the omission
// machinery entirely and the crash-model choice spaces (and the engine's
// allocation profile) are bit-identical to the pre-omission code.
type OmittingFromChooser struct {
	FromChooser
	// OmissionBudget is the maximum number of omission events (a send and a
	// receive omission count one each) the adversary may inject; 0 = no
	// limit.
	OmissionBudget int
	// MaxOmissive is the maximum number of distinct omission-faulty
	// processes; 0 = no limit.
	MaxOmissive int
	// Procs is the system size n, required for receive-omission subsets.
	Procs int

	omitted  int
	omissive []sim.ProcID // the omission-faulty processes, kept only under MaxOmissive
}

// NewFromChooserWithOmissions builds a chooser-driven adversary that, beyond
// crashes, enumerates bounded-omission schedules for an n-process system: up
// to omitBudget omission events, each a send omission (any non-empty subset
// of the round's messages suppressed) or a receive omission (any non-empty
// subset of senders blocked). This is what lets the exhaustive explorer
// search the omission fault model at proof sizes.
func NewFromChooserWithOmissions(c Chooser, t int, maxRound sim.Round, omitBudget, n int) *OmittingFromChooser {
	return &OmittingFromChooser{
		FromChooser:    FromChooser{C: c, T: t, MaxCrashRound: maxRound},
		OmissionBudget: omitBudget,
		Procs:          n,
	}
}

// Reset readies the adversary for another execution: it forgets the
// crashes, omission events and omission-faulty processes of the last one
// and rewinds the mask arena, keeping its configuration and storage.
func (a *OmittingFromChooser) Reset() {
	a.FromChooser.Reset()
	a.omitted, a.omissive = 0, a.omissive[:0]
}

// Omits implements sim.Omitter. Within MaxCrashRound and the MaxOmissive
// budget, the choice tree per (process, round) is: a send-omit gate (when
// the round has messages), then the non-empty dropped subset of its data
// then control positions; then a receive-omit gate (when there are other
// processes), then the non-empty blocked subset of senders. Each gate is
// asked only while OmissionBudget has an event left, so one process may
// send-omit and receive-omit in the same round when the budget allows two.
func (a *OmittingFromChooser) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	if a.MaxCrashRound > 0 && r > a.MaxCrashRound {
		return sim.Omission{}
	}
	if a.MaxOmissive > 0 && len(a.omissive) >= a.MaxOmissive && !slices.Contains(a.omissive, p) {
		return sim.Omission{}
	}
	var om sim.Omission
	if k := len(plan.Data) + len(plan.Control); k > 0 && a.eventLeft() && a.C.Choose(SendOmitGate, 2) == 1 {
		a.omitted++
		send := a.dropSubset(allTrue(&a.masks, k), -1)
		om.Data, om.Ctrl = send[:len(plan.Data):len(plan.Data)], send[len(plan.Data):]
	}
	if a.Procs > 1 && a.eventLeft() && a.C.Choose(RecvOmitGate, 2) == 1 {
		a.omitted++
		om.Recv = a.dropSubset(allTrue(&a.masks, a.Procs), int(p)-1)
	}
	if om.IsZero() {
		return om
	}
	if a.MaxOmissive > 0 && !slices.Contains(a.omissive, p) {
		a.omissive = append(a.omissive, p)
	}
	if a.Observe != nil {
		a.Observe.ObserveOmission(p, r, om)
	}
	return om
}

// eventLeft reports whether OmissionBudget allows another omission event.
func (a *OmittingFromChooser) eventLeft() bool {
	return a.OmissionBudget <= 0 || a.omitted < a.OmissionBudget
}

// dropSubset clears a non-empty subset of the delivered-mask's positions,
// all but skip (-1 for none): one SubsetBit choice per position, the last
// one forced when no earlier one was dropped. Each non-empty subset is one
// leaf of the tree, so no subset index (and no width clamp) is needed.
func (a *OmittingFromChooser) dropSubset(mask []bool, skip int) []bool {
	last := len(mask) - 1
	if last == skip {
		last--
	}
	dropped := false
	for i := range mask {
		if i == skip {
			continue
		}
		if i == last && !dropped || a.C.Choose(SubsetBit, 2) == 1 {
			mask[i], dropped = false, true
		}
	}
	return mask
}
