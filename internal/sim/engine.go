package sim

import (
	"errors"
	"fmt"
	"slices"

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

// Result summarizes a finished execution.
type Result struct {
	// Rounds is the number of rounds executed until every alive process
	// halted (or horizon, on error).
	Rounds Round
	// Decisions maps every process that decided — including processes that
	// crashed after deciding — to its decision value. Uniform agreement is a
	// property of this whole map.
	Decisions map[ProcID]Value
	// DecideRound maps each decided process to the round it decided in.
	DecideRound map[ProcID]Round
	// Crashed maps each crashed process to the round it crashed in.
	Crashed map[ProcID]Round
	// Omissive maps each process that committed at least one omission fault
	// to its number of omissive rounds (rounds in which the adversary
	// returned a non-zero Omission for it). Omissive processes stay alive and
	// may appear in Decisions.
	Omissive map[ProcID]int
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

// Faults returns the number of crashes that occurred in the run (the paper's
// f).
func (r *Result) Faults() int { return len(r.Crashed) }

// OmissionFaulty returns the number of processes that committed at least one
// omission fault.
func (r *Result) OmissionFaulty() int { return len(r.Omissive) }

// MaxDecideRound returns the latest round at which some process decided, or 0
// if nobody decided.
func (r *Result) MaxDecideRound() Round {
	var max Round
	for _, rd := range r.DecideRound {
		if rd > max {
			max = rd
		}
	}
	return max
}

// DistinctDecisions returns the sorted set of distinct decided values. The
// returned slice is its only allocation (no intermediate set, no sort
// closure): the values are collected, sorted, and deduplicated in place.
func (r *Result) DistinctDecisions() []Value {
	out := make([]Value, 0, len(r.Decisions))
	for _, v := range r.Decisions {
		out = append(out, v)
	}
	slices.Sort(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// Engine executes a set of processes under an adversary in lockstep rounds.
//
// All per-process state lives in slices indexed by process (id-1), so the
// round loop performs no map operations and — with tracing disabled — no
// allocations after warm-up. An engine can be rewound with Reset to run many
// executions without reallocating its buffers, which is what the exhaustive
// explorer (internal/check) does.
type Engine struct {
	cfg            Config
	defaultHorizon bool // cfg.Horizon was 0 and derived from n
	procs          []Process
	adv            Adversary
	omit           Omitter // adv's omission extension, nil when absent
	val            PlanValidator

	alive      []bool
	halted     []bool
	decided    []bool
	decVal     []Value
	decRnd     []Round
	crashRnd   []Round  // 0 = never crashed (rounds are 1-based)
	crashedNow []bool   // scratch: crashed during the current round
	omitCnt    []int    // omissive rounds per process
	recvOmit   [][]bool // scratch: receive-omission mask of the current round
	inbox      [][]Message

	aliveUnhalted int // alive processes that have not halted; allQuiet is ==0
	nDecided      int
	nCrashed      int
	ctr           metrics.Counters
	led           metrics.Ledger

	// Telemetry snapshots for per-round deltas; touched only when recording.
	telCtr metrics.Counters
	telLed metrics.Ledger
}

// inboxSeedCap is the per-process inbox capacity carved out of the flat
// buffer a fresh engine allocates: enough for the faithful protocols (at most
// one data and one control message per round) plus slack; flooding protocols
// grow past it once and then reuse the grown buffers.
const inboxSeedCap = 4

// NewEngine builds an engine over the given processes. Process IDs must be
// the contiguous range 1..n in order.
func NewEngine(cfg Config, procs []Process, adv Adversary) (*Engine, error) {
	e := &Engine{cfg: cfg, defaultHorizon: cfg.Horizon <= 0}
	if err := e.Reset(procs, adv); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rewinds the engine to its initial state over a fresh process set and
// adversary, reusing the internal buffers of the previous execution. The
// configuration (model, horizon, trace, loss hook) is retained; if the
// original Horizon was the n+2 default it is re-derived for the new process
// count. Reset validates its arguments exactly like NewEngine.
func (e *Engine) Reset(procs []Process, adv Adversary) error {
	if len(procs) == 0 {
		return errors.New("sim: no processes")
	}
	for i, p := range procs {
		if p.ID() != ProcID(i+1) {
			return fmt.Errorf("sim: process at index %d has id %d, want %d", i, p.ID(), i+1)
		}
	}
	if adv == nil {
		return errors.New("sim: nil adversary")
	}
	n := len(procs)
	if e.defaultHorizon {
		e.cfg.Horizon = Round(n + 2)
	}
	e.procs = procs
	e.adv = adv
	e.omit, _ = adv.(Omitter)
	if cap(e.alive) < n {
		e.alive = make([]bool, n)
		e.halted = make([]bool, n)
		e.decided = make([]bool, n)
		e.decVal = make([]Value, n)
		e.decRnd = make([]Round, n)
		e.crashRnd = make([]Round, n)
		e.crashedNow = make([]bool, n)
		e.inbox = make([][]Message, n)
		// Seed every inbox from one flat backing array: a fresh engine pays
		// one allocation instead of one per first-delivery per process. An
		// inbox that outgrows its seed capacity reallocates privately.
		flat := make([]Message, n*inboxSeedCap)
		for i := range e.inbox {
			e.inbox[i] = flat[i*inboxSeedCap : i*inboxSeedCap : (i+1)*inboxSeedCap]
		}
	} else {
		e.alive = e.alive[:n]
		e.halted = e.halted[:n]
		e.decided = e.decided[:n]
		e.decVal = e.decVal[:n]
		e.decRnd = e.decRnd[:n]
		e.crashRnd = e.crashRnd[:n]
		e.crashedNow = e.crashedNow[:n]
		e.inbox = e.inbox[:n]
	}
	// The omission scratch exists only for omission-capable adversaries, so
	// the crash-model hot path (and its allocation count) is untouched by
	// the omission fault model.
	if e.omit == nil {
		e.omitCnt = e.omitCnt[:0]
		e.recvOmit = e.recvOmit[:0]
	} else if cap(e.omitCnt) < n {
		e.omitCnt = make([]int, n)
		e.recvOmit = make([][]bool, n)
	} else {
		e.omitCnt = e.omitCnt[:n]
		e.recvOmit = e.recvOmit[:n]
	}
	for i := 0; i < n; i++ {
		e.alive[i] = true
		e.halted[i] = false
		e.decided[i] = false
		e.decVal[i] = 0
		e.decRnd[i] = 0
		e.crashRnd[i] = 0
		e.crashedNow[i] = false
		e.inbox[i] = e.inbox[i][:0]
	}
	for i := range e.omitCnt {
		e.omitCnt[i] = 0
		e.recvOmit[i] = nil
	}
	e.aliveUnhalted = n
	e.nDecided = 0
	e.nCrashed = 0
	e.ctr = metrics.Counters{}
	e.led = metrics.Ledger{}
	e.telCtr = metrics.Counters{}
	e.telLed = metrics.Ledger{}
	return nil
}

// N returns the number of processes.
func (e *Engine) N() int { return len(e.procs) }

// Run executes rounds until every alive process has halted, the horizon is
// reached, or a model violation occurs. It returns the result in all cases;
// the result is partial when err != nil.
func (e *Engine) Run() (*Result, error) {
	var r Round
	var runErr error
	recording := e.cfg.Telemetry.Enabled()
	for r = 1; r <= e.cfg.Horizon; r++ {
		if e.allQuiet() {
			r--
			break
		}
		if err := e.round(r); err != nil {
			runErr = err
			break
		}
		if recording {
			e.recordRound(r)
		}
		if e.allQuiet() {
			break
		}
	}
	if r > e.cfg.Horizon {
		r = e.cfg.Horizon
		if runErr == nil && !e.allQuiet() {
			runErr = ErrNoProgress
		}
	}
	res := &Result{
		Rounds:      r,
		Decisions:   make(map[ProcID]Value, e.nDecided),
		DecideRound: make(map[ProcID]Round, e.nDecided),
		Crashed:     make(map[ProcID]Round, e.nCrashed),
		Counters:    e.ctr,
		Ledger:      e.led,
	}
	for i := range e.procs {
		id := ProcID(i + 1)
		if e.decided[i] {
			res.Decisions[id] = e.decVal[i]
			res.DecideRound[id] = e.decRnd[i]
		}
		if e.crashRnd[i] != 0 {
			res.Crashed[id] = e.crashRnd[i]
		}
		if i < len(e.omitCnt) && e.omitCnt[i] != 0 {
			if res.Omissive == nil {
				res.Omissive = make(map[ProcID]int)
			}
			res.Omissive[id] = e.omitCnt[i]
		}
	}
	res.Counters.Rounds = int(r)
	if recording && runErr == nil {
		e.cfg.Telemetry.Span(telemetry.SpanRun, telemetry.TrackEngine, 0, int32(r), 0, float64(r))
		if r > 0 {
			// On the round abstraction one round is one simulated time unit,
			// so rounds per simulated second is 1 by construction; sampling it
			// keeps the series present for cross-engine comparisons.
			e.cfg.Telemetry.Sample(telemetry.SeriesRoundsPerSec, float64(r), 1)
		}
	}
	return res, runErr
}

// recordRound emits the telemetry of one finished round: a round span over
// its unit time interval and the per-round traffic deltas against the
// previous snapshot. Called only when recording.
func (e *Engine) recordRound(r Round) {
	rec := e.cfg.Telemetry
	t := float64(r)
	rec.Span(telemetry.SpanRound, telemetry.TrackEngine, int32(r), 0, t-1, t)
	dc := e.ctr.Minus(e.telCtr)
	dl := e.led.Minus(e.telLed)
	rec.Sample(telemetry.SeriesDataMsgs, t, float64(dc.DataMsgs))
	rec.Sample(telemetry.SeriesCtrlMsgs, t, float64(dc.CtrlMsgs))
	rec.Sample(telemetry.SeriesDelivered, t, float64(dl.DeliveredData+dl.DeliveredCtrl))
	rec.Sample(telemetry.SeriesDropped, t, float64(dc.DroppedData+dc.DroppedCtrl))
	rec.Sample(telemetry.SeriesOmitted, t, float64(dc.OmittedData+dc.OmittedCtrl+dc.OmittedRecv))
	rec.Sample(telemetry.SeriesLate, t, float64(dc.Late))
	e.telCtr = e.ctr
	e.telLed = e.led
}

// allQuiet reports whether every alive process has halted. The engine keeps
// a running count, so this is O(1) per call.
func (e *Engine) allQuiet() bool { return e.aliveUnhalted == 0 }

// round executes one round: send phase (both steps, with crash truncation),
// delivery, then receive/compute phase.
func (e *Engine) round(r Round) error {
	// Send phase. Collect deliveries first; all messages sent in round r are
	// received in round r, after every sender has executed its send phase.
	for i := range e.crashedNow {
		e.crashedNow[i] = false
	}
	for i := range e.recvOmit {
		e.recvOmit[i] = nil
	}
	for _, p := range e.procs {
		id := p.ID()
		i := int(id) - 1
		if !e.alive[i] || e.halted[i] {
			continue
		}
		plan := p.Send(r)
		if e.cfg.Model == ModelClassic && len(plan.Control) > 0 {
			return fmt.Errorf("%w (process p%d, round %d)", ErrControlInClassic, id, r)
		}
		if err := e.val.Validate(id, len(e.procs), plan); err != nil {
			return fmt.Errorf("%v (round %d)", err, r)
		}
		crash, outcome := e.adv.Crashes(id, r, plan)
		if crash {
			if !outcome.ValidFor(plan) {
				return fmt.Errorf("%w (process p%d, round %d)", ErrBadOutcome, id, r)
			}
			e.alive[i] = false
			e.crashRnd[i] = r
			e.crashedNow[i] = true
			e.aliveUnhalted--
			e.nCrashed++
			if e.cfg.Trace.Enabled() {
				e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindCrash, From: int(id),
					Detail: fmt.Sprintf("during send (data %s, ctrl prefix %d/%d)",
						subsetString(outcome.DataDelivered), outcome.CtrlPrefix, len(plan.Control))})
			}
			e.emit(id, r, plan, outcome)
			continue
		}
		if e.omit != nil {
			if om := e.omit.Omits(id, r, plan); !om.IsZero() {
				if !om.ValidFor(plan) {
					return fmt.Errorf("%w (process p%d, round %d)", ErrBadOmission, id, r)
				}
				e.omitCnt[i]++
				e.recvOmit[i] = om.Recv
				if e.cfg.Trace.Enabled() {
					e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindNote, From: int(id),
						Detail: omissionString(om)})
				}
				e.emitOmitted(id, r, plan, om)
				continue
			}
		}
		e.emitAll(id, r, plan)
	}

	// Receive + compute phase. Crashed processes (including those that
	// crashed this round) receive nothing.
	for _, p := range e.procs {
		id := p.ID()
		i := int(id) - 1
		if !e.alive[i] {
			continue
		}
		if e.halted[i] {
			// A halted process stays alive but silent; anything queued for it
			// is discarded so its buffer does not grow round over round.
			for _, m := range e.inbox[i] {
				e.led.HaltedDest(m.Kind == Control)
			}
			e.inbox[i] = e.inbox[i][:0]
			continue
		}
		in := e.inbox[i]
		e.inbox[i] = in[:0] // recycle the buffer for the next round
		if i < len(e.recvOmit) && e.recvOmit[i] != nil {
			in = e.applyRecvOmission(in, e.recvOmit[i], r)
		}
		for _, m := range in {
			e.led.Delivered(m.Kind == Control)
		}
		SortInbox(in)
		p.Receive(r, in)
		if v, ok := p.Decided(); ok {
			if !e.decided[i] {
				e.decided[i] = true
				e.decVal[i] = v
				e.decRnd[i] = r
				e.nDecided++
				if e.cfg.Trace.Enabled() {
					e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindDecide,
						From: int(id), Detail: fmt.Sprintf("value %d", int64(v))})
				}
			}
		}
		if p.Halted() {
			if !e.decided[i] {
				return fmt.Errorf("%w (process p%d, round %d)", ErrHaltedWithoutDecision, id, r)
			}
			if !e.halted[i] {
				e.halted[i] = true
				e.aliveUnhalted--
				if e.cfg.Trace.Enabled() {
					e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindHalt, From: int(id)})
				}
			}
		}
	}
	// Messages addressed to processes that crashed this round are dropped.
	for i, c := range e.crashedNow {
		if c {
			for _, m := range e.inbox[i] {
				e.led.DeadDest(m.Kind == Control)
			}
			e.inbox[i] = e.inbox[i][:0]
		}
	}
	return nil
}

// emitAll queues every message of a plan for delivery: the no-crash fast
// path, equivalent to emit with FullDelivery(plan) but without materializing
// the delivered-subset mask.
func (e *Engine) emitAll(from ProcID, r Round, plan SendPlan) {
	for _, o := range plan.Data {
		m := Message{From: from, To: o.To, Round: r, Kind: Data, Payload: o.Payload}
		e.ctr.AddData(m.Bits())
		e.deliver(m)
	}
	for _, to := range plan.Control {
		m := Message{From: from, To: to, Round: r, Kind: Control}
		e.ctr.AddCtrl()
		e.deliver(m)
	}
}

// emitOmitted queues a plan for delivery under a send-omission mask: unlike a
// crash truncation, the sender stays alive, any subset of either step may
// vanish, and the suppressed messages are accounted as omitted (they never
// reached the channel) rather than dropped.
func (e *Engine) emitOmitted(from ProcID, r Round, plan SendPlan, om Omission) {
	for i, o := range plan.Data {
		if om.Data != nil && !om.Data[i] {
			e.ctr.OmittedData++
			if e.cfg.Trace.Enabled() {
				e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindDrop,
					From: int(from), To: int(o.To), Detail: "data (send omission)"})
			}
			continue
		}
		m := Message{From: from, To: o.To, Round: r, Kind: Data, Payload: o.Payload}
		e.ctr.AddData(m.Bits())
		e.deliver(m)
	}
	for i, to := range plan.Control {
		if om.Ctrl != nil && !om.Ctrl[i] {
			e.ctr.OmittedCtrl++
			if e.cfg.Trace.Enabled() {
				e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindDrop,
					From: int(from), To: int(to), Detail: "control (send omission)"})
			}
			continue
		}
		m := Message{From: from, To: to, Round: r, Kind: Control}
		e.ctr.AddCtrl()
		e.deliver(m)
	}
}

// applyRecvOmission compacts an inbox in place to the messages that survive a
// receive-omission mask, accounting the suppressed deliveries.
func (e *Engine) applyRecvOmission(in []Message, mask []bool, r Round) []Message {
	w := 0
	for _, m := range in {
		if i := int(m.From) - 1; i < len(mask) && !mask[i] {
			e.ctr.OmittedRecv++
			e.led.RecvOmitted(m.Kind == Control)
			if e.cfg.Trace.Enabled() {
				e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindDrop,
					From: int(m.From), To: int(m.To), Detail: m.Kind.String() + " (receive omission)"})
			}
			continue
		}
		in[w] = m
		w++
	}
	return in[:w]
}

// emit applies a (possibly truncating) crash outcome to a send plan, queueing
// the surviving messages for delivery and accounting costs.
func (e *Engine) emit(from ProcID, r Round, plan SendPlan, out CrashOutcome) {
	for i, o := range plan.Data {
		if !out.DataDelivered[i] {
			e.ctr.DroppedData++
			if e.cfg.Trace.Enabled() {
				e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindDrop,
					From: int(from), To: int(o.To), Detail: "data"})
			}
			continue
		}
		m := Message{From: from, To: o.To, Round: r, Kind: Data, Payload: o.Payload}
		e.ctr.AddData(m.Bits())
		e.deliver(m)
	}
	for i, to := range plan.Control {
		if i >= out.CtrlPrefix {
			e.ctr.DroppedCtrl++
			if e.cfg.Trace.Enabled() {
				e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindDrop,
					From: int(from), To: int(to), Detail: "control"})
			}
			continue
		}
		m := Message{From: from, To: to, Round: r, Kind: Control}
		e.ctr.AddCtrl()
		e.deliver(m)
	}
}

// deliver queues a message for the destination's receive phase of the current
// round. Messages to already-crashed processes vanish.
func (e *Engine) deliver(m Message) {
	if e.cfg.Trace.Enabled() {
		e.cfg.Trace.Add(trace.Event{Round: int(m.Round), Kind: trace.KindSend,
			From: int(m.From), To: int(m.To), Detail: m.Kind.String()})
	}
	i := int(m.To) - 1
	if !e.alive[i] {
		e.led.DeadDest(m.Kind == Control)
		return
	}
	e.inbox[i] = append(e.inbox[i], m)
	if e.cfg.Trace.Enabled() {
		e.cfg.Trace.Add(trace.Event{Round: int(m.Round), Kind: trace.KindDeliver,
			From: int(m.From), To: int(m.To), Detail: m.Kind.String()})
	}
}

// SortInbox orders an inbox deterministically: by sender, data before
// control. Protocol behaviour must not depend on the order, but determinism
// keeps executions reproducible bit-for-bit — and the engines' cross-check
// contract depends on every engine presenting identical inboxes, so this is
// THE canonical order: all engines (deterministic, lockstep, timed) must
// call this one function rather than reimplement it. Inboxes are small (at
// most a few messages per sender), so a stable insertion sort beats
// sort.SliceStable and performs no allocations.
func SortInbox(in []Message) {
	for i := 1; i < len(in); i++ {
		m := in[i]
		j := i - 1
		for j >= 0 && msgAfter(in[j], m) {
			in[j+1] = in[j]
			j--
		}
		in[j+1] = m
	}
}

// msgAfter reports whether a orders strictly after b: by sender, then data
// before control. Equal keys return false, which keeps the insertion stable.
func msgAfter(a, b Message) bool {
	if a.From != b.From {
		return a.From > b.From
	}
	return a.Kind > b.Kind
}

// omissionString renders an omission event compactly for traces, listing the
// delivered subsets of each affected class, e.g.
// "omission (data {1}/2, recv {2,3}/3)".
func omissionString(o Omission) string {
	s := "omission ("
	first := true
	add := func(label string, mask []bool) {
		if mask == nil {
			return
		}
		if !first {
			s += ", "
		}
		s += label + " " + subsetString(mask)
		first = false
	}
	add("data", o.Data)
	add("ctrl", o.Ctrl)
	add("recv", o.Recv)
	return s + ")"
}

// subsetString renders a delivered-subset mask compactly, e.g. "{1,3}/4".
func subsetString(mask []bool) string {
	s := "{"
	first := true
	for i, b := range mask {
		if !b {
			continue
		}
		if !first {
			s += ","
		}
		s += fmt.Sprint(i + 1)
		first = false
	}
	return fmt.Sprintf("%s}/%d", s, len(mask))
}
