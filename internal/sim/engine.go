package sim

import (
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Errors returned by the engine.
var (
	// ErrControlInClassic is returned when a protocol emits control messages
	// under ModelClassic, which has no second sending step.
	ErrControlInClassic = errors.New("sim: control message emitted under the classic model")
	// ErrNoProgress is returned when the horizon is reached with undecided
	// alive processes.
	ErrNoProgress = errors.New("sim: horizon reached before all alive processes decided")
	// ErrBadOutcome is returned when an adversary produces a malformed crash
	// outcome (wrong subset length or out-of-range prefix).
	ErrBadOutcome = errors.New("sim: adversary returned malformed crash outcome")
	// ErrBadOmission is returned when an omitter produces a malformed
	// omission (send masks not matching the plan).
	ErrBadOmission = errors.New("sim: adversary returned malformed omission")
	// ErrHaltedWithoutDecision is returned when a process reports Halted
	// without having decided, which no correct protocol may do.
	ErrHaltedWithoutDecision = errors.New("sim: process halted without deciding")
)

// Config configures an execution of the synchronous engine.
type Config struct {
	// Model selects classic or extended semantics.
	Model Model
	// Horizon bounds the number of rounds; the run fails with ErrNoProgress
	// if some alive process has not decided by then. Use at least t+1 for the
	// classic algorithms and f+2 for the paper's algorithm. Zero defaults to
	// n + 2.
	Horizon Round
	// Trace, if non-nil, receives the execution transcript. The no-trace path
	// is the engine's hot path: with Trace nil, rounds execute without any
	// event or detail-string construction.
	Trace *trace.Log
	// Telemetry, if non-nil, receives run/round spans (one simulated time
	// unit per round) and per-round traffic series sampled from the engine's
	// counters. The nil path costs nothing.
	Telemetry *telemetry.Recorder
}

// Outcome is the fate of one process in a finished execution. Rounds are
// 1-based, so a zero round means "never": DecideRound 0 is a process that
// never decided (its Value is then 0), CrashRound 0 one that never crashed.
type Outcome struct {
	// Value is the decision value; meaningful only when DecideRound != 0.
	Value Value
	// DecideRound is the round the process decided in. A process that
	// crashed after deciding keeps its decision: uniform agreement is a
	// property of every decided outcome, faulty or not.
	DecideRound Round
	// CrashRound is the round the process crashed in.
	CrashRound Round
	// OmissiveRounds counts the rounds in which the adversary returned a
	// non-zero Omission for the process. Omissive processes stay alive and
	// may decide.
	OmissiveRounds int
}

// Result summarizes a finished execution.
type Result struct {
	// Rounds is the number of rounds executed until every alive process
	// halted (or horizon, on error).
	Rounds Round
	// Procs holds every process's outcome, indexed by id−1, one per process
	// of the run. Like the rest of the result it belongs to the engine that
	// produced it and is rewritten by that engine's next run (see Clone).
	Procs []Outcome
	// Counters holds the communication cost of the run.
	Counters metrics.Counters
	// Ledger records the fate of every transmitted message, per kind, backing
	// the conservation law checked by internal/laws: for each kind,
	// transmitted == delivered + receive-omitted + late + dead-destination +
	// halted-destination.
	Ledger metrics.Ledger
	// ClockViolation is a description of the first simulated-clock ordering
	// or bookkeeping violation detected by the engine's event core, or "" on
	// a clean run. Only continuous-time engines (internal/timed, via
	// des.Sim.Audit) can set it; round-abstraction engines always leave it
	// empty.
	ClockViolation string
	// SimTime is the simulated wall-clock completion time of the run, in the
	// time units of the engine's latency model. Only continuous-time engines
	// (internal/timed) set it; the round-abstraction engines leave it zero.
	// Cross-engine comparisons deliberately exclude it: it prices the same
	// semantic execution, it does not change it.
	SimTime float64
}

// Clone returns a copy of the result that shares nothing with it. Every
// engine recycles its one result, which stays valid only until the engine's
// next Run or Reset; a caller that keeps a result longer (a counterexample, a
// finding) keeps a clone.
func (r *Result) Clone() *Result {
	c := *r
	c.Procs = slices.Clone(r.Procs)
	return &c
}

// Decision returns the value process id decided, and whether it decided.
func (r *Result) Decision(id ProcID) (Value, bool) {
	o := r.Procs[id-1]
	return o.Value, o.DecideRound != 0
}

// Decisions yields every process that decided, with its value, in id order.
func (r *Result) Decisions() iter.Seq2[ProcID, Value] {
	return func(yield func(ProcID, Value) bool) {
		for i, o := range r.Procs {
			if o.DecideRound != 0 && !yield(ProcID(i+1), o.Value) {
				return
			}
		}
	}
}

// Faults returns the number of crashes that occurred in the run (the paper's
// f).
func (r *Result) Faults() int {
	f := 0
	for _, o := range r.Procs {
		if o.CrashRound != 0 {
			f++
		}
	}
	return f
}

// OmissionFaulty returns the number of processes that committed at least one
// omission fault.
func (r *Result) OmissionFaulty() int {
	k := 0
	for _, o := range r.Procs {
		if o.OmissiveRounds != 0 {
			k++
		}
	}
	return k
}

// MaxDecideRound returns the latest round at which some process decided, or 0
// if nobody decided.
func (r *Result) MaxDecideRound() Round {
	var m Round
	for _, o := range r.Procs {
		m = max(m, o.DecideRound)
	}
	return m
}

// DistinctDecisions returns the sorted set of distinct decided values. The
// returned slice is its only allocation: the values are collected, sorted,
// and deduplicated in place.
func (r *Result) DistinctDecisions() []Value {
	out := make([]Value, 0, len(r.Procs))
	for _, o := range r.Procs {
		if o.DecideRound != 0 {
			out = append(out, o.Value)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// DecisionsString renders the decided processes exactly as fmt renders a
// map[ProcID]Value ("map[1:100 3:100]"), the form violation texts and the
// CLIs print.
func (r *Result) DecisionsString() string {
	return r.mapString(func(o Outcome) (int64, bool) { return int64(o.Value), o.DecideRound != 0 })
}

// DecideRoundsString renders the decision rounds as fmt renders a
// map[ProcID]Round.
func (r *Result) DecideRoundsString() string {
	return r.mapString(func(o Outcome) (int64, bool) { return int64(o.DecideRound), o.DecideRound != 0 })
}

// CrashedString renders the crash rounds as fmt renders a map[ProcID]Round.
func (r *Result) CrashedString() string {
	return r.mapString(func(o Outcome) (int64, bool) { return int64(o.CrashRound), o.CrashRound != 0 })
}

// mapString renders the selected per-process field in fmt's map format:
// ascending keys, "key:value" pairs separated by spaces.
func (r *Result) mapString(field func(Outcome) (int64, bool)) string {
	var b strings.Builder
	b.WriteString("map[")
	sep := ""
	for i, o := range r.Procs {
		if v, ok := field(o); ok {
			fmt.Fprintf(&b, "%s%d:%d", sep, i+1, v)
			sep = " "
		}
	}
	b.WriteString("]")
	return b.String()
}

// Engine executes a set of processes under an adversary in lockstep rounds.
// It is the round kernel plus the round loop: every message a sender
// transmits is queued at once for its destination's receive phase of the
// same round.
//
// With tracing disabled the round loop performs no map operations and no
// allocations after warm-up. An engine can be rewound with Reset to run many
// executions without reallocating its buffers, which is what the exhaustive
// explorer (internal/check) does.
type Engine struct {
	k              Kernel
	defaultHorizon bool // the configured Horizon was 0 and derived from n
}

// NewEngine builds an engine over the given processes. Process IDs must be
// the contiguous range 1..n in order.
func NewEngine(cfg Config, procs []Process, adv Adversary) (*Engine, error) {
	e := &Engine{}
	if err := e.ResetConfig(cfg, procs, adv); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rewinds the engine to its initial state over a fresh process set and
// adversary, reusing the internal buffers of the previous execution. The
// configuration (model, horizon, trace, telemetry) is retained; if the
// original Horizon was the n+2 default it is re-derived for the new process
// count. Reset validates its arguments exactly like NewEngine.
func (e *Engine) Reset(procs []Process, adv Adversary) error {
	cfg := e.k.cfg
	if e.defaultHorizon {
		cfg.Horizon = 0
	}
	return e.ResetConfig(cfg, procs, adv)
}

// ResetConfig rewinds the engine onto a new job — configuration, process set
// and adversary — reusing the internal buffers of previous executions, which
// grow only when the process count exceeds every earlier one. One engine
// therefore serves jobs of every shape. Validation happens before any
// mutation, so on error the engine still holds its previous job.
func (e *Engine) ResetConfig(cfg Config, procs []Process, adv Adversary) error {
	h, err := ValidateJob("sim", cfg.Horizon, procs, adv)
	if err != nil {
		return err
	}
	e.defaultHorizon = cfg.Horizon <= 0
	cfg.Horizon = h
	e.k.Arm(cfg, procs, adv, (*deliverer)(e), nil)
	return nil
}

// N returns the number of processes.
func (e *Engine) N() int { return e.k.N() }

// Run executes rounds until every alive process has halted, the horizon is
// reached, or a model violation occurs. It returns the result in all cases;
// the result is partial when err != nil. The result is the engine's own and
// valid until its next Run, Reset or ResetConfig; Clone it to keep it longer.
func (e *Engine) Run() (*Result, error) {
	var r Round
	var runErr error
	for r = 1; r <= e.k.cfg.Horizon; r++ {
		if err := e.round(r); err != nil {
			runErr = err
			break
		}
		// On the round abstraction round r spans the unit interval [r-1, r].
		e.k.RecordRound(r, float64(r-1), float64(r))
		if e.k.Quiet() {
			break
		}
	}
	if r > e.k.cfg.Horizon {
		r = e.k.cfg.Horizon
		if runErr == nil && !e.k.Quiet() {
			runErr = ErrNoProgress
		}
	}
	return e.k.Finish(r, float64(r), runErr == nil), runErr
}

// round executes one round: the send phase of every active process (both
// steps, with crash truncation, each message queued as it leaves), then
// their receive and computation phases.
func (e *Engine) round(r Round) error {
	k := &e.k
	for i := range k.procs {
		if k.Active(i) {
			if err := k.SendPhase(i, r); err != nil {
				return err
			}
		}
	}
	for i := range k.procs {
		if k.Active(i) {
			if err := k.ReceivePhase(i, r); err != nil {
				return err
			}
		}
	}
	// Every active process has emptied its inbox. What is left was queued
	// for a process that crashed later in this round's send phase, or that
	// has halted: it is never received.
	for i, in := range k.inbox {
		for _, m := range in {
			if k.alive[i] {
				k.led.HaltedDest(m.Kind == Control)
			} else {
				k.led.DeadDest(m.Kind == Control)
			}
		}
		k.inbox[i] = in[:0]
	}
	return nil
}

// deliverer is the engine's Transmitter: immediate delivery.
type deliverer Engine

// Transmit queues a message for the destination's receive phase of the
// current round. Messages to already-crashed processes vanish; a halted
// destination's are discarded at the end of the round.
func (d *deliverer) Transmit(m Message) {
	k := &d.k
	if k.cfg.Trace.Enabled() {
		k.cfg.Trace.Add(trace.Event{Round: int(m.Round), Kind: trace.KindSend,
			From: int(m.From), To: int(m.To), Detail: m.Kind.String()})
	}
	i := int(m.To) - 1
	if !k.alive[i] {
		k.led.DeadDest(m.Kind == Control)
		return
	}
	k.inbox[i] = append(k.inbox[i], m)
	if k.cfg.Trace.Enabled() {
		k.cfg.Trace.Add(trace.Event{Round: int(m.Round), Kind: trace.KindDeliver,
			From: int(m.From), To: int(m.To), Detail: m.Kind.String()})
	}
}
