// Package sim implements the round-based synchronous computation models of
// the paper: the traditional synchronous model and the extended model of
// Section 2, in which the send phase of a round is made of two back-to-back
// steps — a data sending step followed by an ordered control (synchronization)
// sending step.
//
// The engine is deterministic: processes are state machines and every source
// of nondeterminism (who crashes when, which data messages escape a crashing
// sender, how long a prefix of the ordered control sequence escapes) is
// delegated to an Adversary. This makes the engine usable both for single
// executions (with scripted or randomized adversaries) and for exhaustive
// state-space exploration (with a backtracking adversary, see internal/check).
//
// Crash semantics follow the paper exactly:
//
//   - If a process crashes during the data sending step, an arbitrary subset
//     of its data messages is delivered.
//   - If it crashes during the control sending step, the control message
//     reaches an arbitrary prefix of the ordered destination sequence.
//   - A message sent in round r is received in round r; a process that
//     crashes in round r receives nothing in round r.
//   - Once a process decides and returns, it halts: it sends nothing in later
//     rounds (this mirrors the "return" statements of Figure 1 and is
//     load-bearing for the uniform agreement proof).
package sim

import "fmt"

// ProcID identifies a process. Processes are numbered 1..n as in the paper
// (p1 is the first rotating coordinator).
type ProcID int

// Round is a 1-based round number. The engine provides it as the global
// read-only clock variable of Section 2.1.
type Round int

// Value is a proposal / decision value. The paper treats values as opaque
// b-bit quantities; int64 payloads plus an explicit bit width in the payload
// types reproduce the bit accounting of Theorem 2.
type Value int64

// NoValue is a sentinel for "no value present".
const NoValue Value = -1 << 62

// Model selects which synchronous model the engine enforces.
type Model uint8

const (
	// ModelClassic is the traditional round-based synchronous model: the send
	// phase has only the data sending step. Protocols running under it must
	// not emit control messages; the engine rejects plans that do.
	ModelClassic Model = iota + 1
	// ModelExtended is the paper's model: data step followed, without a
	// break, by the ordered control step.
	ModelExtended
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case ModelClassic:
		return "classic"
	case ModelExtended:
		return "extended"
	default:
		return fmt.Sprintf("model(%d)", uint8(m))
	}
}

// MsgKind distinguishes the two kinds of messages of the extended model.
type MsgKind uint8

const (
	// Data messages carry protocol payloads; their content may depend on
	// messages received in previous rounds.
	Data MsgKind = iota + 1
	// Control messages carry no data (one bit); they are sent in the second
	// sending step of a round, in a prescribed destination order.
	Control
)

// String returns the kind name.
func (k MsgKind) String() string {
	switch k {
	case Data:
		return "data"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("msgkind(%d)", uint8(k))
	}
}

// Payload is the content of a data message. Implementations declare their
// size in bits so the engine can account costs per Theorem 2.
type Payload interface {
	// Bits returns the size of the payload in bits.
	Bits() int
	// String renders the payload for traces.
	String() string
}

// Est is the simplest payload: a single value of a declared bit width. It is
// what the paper's algorithm sends (the coordinator's current estimate).
type Est struct {
	V Value
	B int
}

// Bits returns the declared bit width of the estimate.
func (e Est) Bits() int { return e.B }

// String renders the estimate value.
func (e Est) String() string { return fmt.Sprintf("est(%d)", int64(e.V)) }

// Message is a message in transit or delivered.
type Message struct {
	From    ProcID
	To      ProcID
	Round   Round
	Kind    MsgKind
	Payload Payload // nil for control messages
}

// Bits returns the transmitted size of the message: the payload size for data
// messages, one bit for control messages (footnote 7 of the paper).
func (m Message) Bits() int {
	if m.Kind == Control {
		return 1
	}
	if m.Payload == nil {
		return 0
	}
	return m.Payload.Bits()
}

// String renders the message for traces.
func (m Message) String() string {
	if m.Kind == Control {
		return fmt.Sprintf("COMMIT p%d->p%d@r%d", m.From, m.To, m.Round)
	}
	return fmt.Sprintf("DATA p%d->p%d@r%d %v", m.From, m.To, m.Round, m.Payload)
}

// Outgoing is one data message a process intends to send in the data step.
type Outgoing struct {
	To      ProcID
	Payload Payload
}

// SendPlan is everything a process emits during the send phase of one round:
// the data messages of the first step and the ordered control destinations of
// the second step. Under ModelClassic, Control must be empty.
//
// The two steps are executed sequentially with no local computation in
// between: the engine calls Send exactly once per round and the plan commits
// the process to both steps atomically (up to crash truncation).
type SendPlan struct {
	Data    []Outgoing
	Control []ProcID
}

// IsEmpty reports whether the plan sends nothing.
func (p SendPlan) IsEmpty() bool { return len(p.Data) == 0 && len(p.Control) == 0 }

// Process is a synchronous round-based state machine.
//
// The engine drives each alive, non-halted process through the three phases
// of Section 2.1 every round: it calls Send (the send phase — both steps),
// delivers messages, then calls Receive (the receive phase plus the local
// computation phase). A process signals decision via Decided and termination
// via Halted; a halted process is correct but silent (it has returned).
type Process interface {
	// ID returns the process identity (1-based).
	ID() ProcID
	// Send returns the process's send plan for round r. It must not mutate
	// state in a way that depends on messages of round r (per the model, the
	// send phase precedes the receive phase). The returned plan is only valid
	// until the process's next Send: a process may recycle the backing arrays
	// of Data and Control, so engines, adversaries and wrappers must not
	// retain it. Payloads are immutable and may be shared by every message of
	// the plan; delivered messages keep referring to them.
	Send(r Round) SendPlan
	// Receive delivers the messages received in round r and runs the local
	// computation phase. The inbox slice is only valid for the duration of
	// the call: the engine recycles its backing array for later rounds, so
	// implementations must copy any messages they need to retain.
	Receive(r Round, inbox []Message)
	// Decided reports whether the process has decided, and the value.
	Decided() (Value, bool)
	// Halted reports whether the process has terminated (returned). A halted
	// process must have decided.
	Halted() bool
}

// CrashOutcome describes how a crash during the send phase truncates the
// plan: DataDelivered[i] reports whether plan.Data[i] escaped, and CtrlPrefix
// is the number of control messages (a prefix of plan.Control) that escaped.
//
// This single shape expresses every crash point of the model: crashing before
// sending anything is all-false/0; crashing between the two steps is all-true/0;
// crashing after the full send phase (but before the computation phase, e.g.
// just before line 6 of Figure 1) is all-true/len(Control).
//
// Because the two steps are executed sequentially and a process crashes at a
// single point in time, a non-zero control prefix implies the data step
// completed: CtrlPrefix > 0 requires every DataDelivered entry to be true.
// The engine rejects outcomes violating this with ErrBadOutcome — allowing
// them would let a process receive a COMMIT without the coordinator's DATA,
// which provably breaks the algorithm (see the CommitAsData ablation, E10).
type CrashOutcome struct {
	DataDelivered []bool
	CtrlPrefix    int
}

// ValidFor reports whether the outcome is well-formed for the plan: the mask
// matches the data count, the prefix is in range, and a non-zero prefix
// implies full data delivery (single crash point, sequential steps).
func (o CrashOutcome) ValidFor(plan SendPlan) bool {
	if len(o.DataDelivered) != len(plan.Data) {
		return false
	}
	if o.CtrlPrefix < 0 || o.CtrlPrefix > len(plan.Control) {
		return false
	}
	if o.CtrlPrefix > 0 {
		for _, d := range o.DataDelivered {
			if !d {
				return false
			}
		}
	}
	return true
}

// Omission describes the omission faults of one process in one round. The
// zero value means "no omission". Unlike a crash, an omission leaves the
// process alive: it keeps executing the protocol, only its communication is
// silently degraded — the send/receive-omission fault model that sits between
// crash faults and fully lossy channels.
//
//   - Data[i] reports whether plan.Data[i] is transmitted (false = send
//     omission of that message). A nil Data transmits every data message.
//   - Ctrl[i] reports whether plan.Control[i] is transmitted. A nil Ctrl
//     transmits the whole control sequence. Unlike a crash — which cuts the
//     ordered control step at a prefix — a send omission may drop any subset:
//     the process is alive and executes the full step, individual messages
//     simply vanish in its faulty network interface.
//   - Recv[i] reports whether messages from p_{i+1} reach the process this
//     round (false = receive omission of that sender's messages). A nil Recv
//     delivers everything; senders beyond the mask's length are delivered.
type Omission struct {
	Data []bool
	Ctrl []bool
	Recv []bool
}

// IsZero reports whether the omission is the no-fault value.
func (o Omission) IsZero() bool { return o.Data == nil && o.Ctrl == nil && o.Recv == nil }

// ValidFor reports whether the omission is well-formed for the plan: non-nil
// send masks must match the plan exactly (the receive mask is positional over
// process ids and may be any length).
func (o Omission) ValidFor(plan SendPlan) bool {
	if o.Data != nil && len(o.Data) != len(plan.Data) {
		return false
	}
	if o.Ctrl != nil && len(o.Ctrl) != len(plan.Control) {
		return false
	}
	return true
}

// DeliveredMask materializes a positional delivered-mask to length k with
// missing positions delivered — the padding rule every omission spec layer
// (scripted adversaries, fuzz-script replay) shares, load-bearing for
// cross-layer replay fidelity.
func DeliveredMask(mask []bool, k int) []bool {
	out := make([]bool, k)
	for i := range out {
		out[i] = i >= len(mask) || mask[i]
	}
	return out
}

// Omitter is an optional extension of Adversary for send/receive-omission
// faults. Engines consult it once per alive, unhalted process per round,
// immediately after Crashes returned false (a crashing process's truncation
// already subsumes any send omission, and it receives nothing anyway).
//
// Like Crashes, implementations used for cross-engine comparison must be pure
// functions of (process, round, plan): the lockstep runtime consults the
// omitter in goroutine scheduling order.
type Omitter interface {
	Omits(p ProcID, r Round, plan SendPlan) Omission
}

// Adversary controls every nondeterministic choice of the model.
type Adversary interface {
	// Crashes is consulted once per alive process per round, after the
	// process produced its send plan. If it returns crash=true, the process
	// crashes during this round's send phase and outcome describes the
	// truncation; the process receives nothing this round and is removed.
	//
	// Implementations must keep the total number of crashes within the
	// resilience bound t they were configured with.
	Crashes(p ProcID, r Round, plan SendPlan) (crash bool, outcome CrashOutcome)
}

// PlanValidator checks send plans on scratch it owns, so validating a plan
// allocates nothing once the scratch has grown to the system size. The zero
// value is ready to use. A validator is not safe for concurrent use: every
// engine — and every lockstep worker, which validate concurrently — owns one.
type PlanValidator struct {
	seen []bool // seen[j]: p_{j+1} is a control destination of the current plan
}

// Validate checks a send plan: destinations must be existing processes
// other than the sender, and the ordered control sequence must not name a
// destination twice (a channel carries at most one control message per round
// — footnote 3 of the paper). Multiple data messages to one destination are
// tolerated here because the CommitAsData ablation folds the commit into the
// data step; the faithful protocols send at most one data message per channel
// per round, which the lockstep runtime's capacity-2 channels additionally
// enforce.
func (v *PlanValidator) Validate(from ProcID, n int, plan SendPlan) error {
	for _, o := range plan.Data {
		if o.To < 1 || int(o.To) > n {
			return fmt.Errorf("sim: p%d sends data to nonexistent p%d", from, o.To)
		}
		if o.To == from {
			return fmt.Errorf("sim: p%d sends data to itself", from)
		}
	}
	if len(plan.Control) == 0 {
		return nil
	}
	if cap(v.seen) < n {
		v.seen = make([]bool, n)
	}
	seen := v.seen[:n]
	clear(seen)
	for _, to := range plan.Control {
		if to < 1 || int(to) > n {
			return fmt.Errorf("sim: p%d sends control to nonexistent p%d", from, to)
		}
		if to == from {
			return fmt.Errorf("sim: p%d sends control to itself", from)
		}
		if seen[to-1] {
			return fmt.Errorf("sim: p%d sends two control messages to p%d in one round", from, to)
		}
		seen[to-1] = true
	}
	return nil
}

// FullDelivery returns the outcome of a crash that happens after the entire
// send phase completed (everything escaped).
func FullDelivery(plan SendPlan) CrashOutcome {
	d := make([]bool, len(plan.Data))
	for i := range d {
		d[i] = true
	}
	return CrashOutcome{DataDelivered: d, CtrlPrefix: len(plan.Control)}
}

// NoDelivery returns the outcome of a crash before anything was sent.
func NoDelivery(plan SendPlan) CrashOutcome {
	return CrashOutcome{DataDelivered: make([]bool, len(plan.Data)), CtrlPrefix: 0}
}
