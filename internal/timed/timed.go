// Package timed is a continuous-time consensus engine: it executes the same
// sim.Process state machines as the round-based engines (internal/sim,
// internal/lockstep), under the same sim.Adversary / sim.Omitter fault
// interfaces, but on a discrete-event simulation (internal/des) in which
// every data and control message is stamped with an arrival time priced by a
// pluggable LatencyModel.
//
// Round boundaries emerge from timers rather than lockstep barriers: a round
// starts at simulated time T, each alive process executes its send phase and
// every transmitted message is stamped to arrive at T plus its sampled
// latency; one deadline sweep fires at the round deadline T + D (classic
// model) or T + D + δ (extended model), delivers whatever arrived in time to
// each process in id order, and runs the local computation phases. No process
// can observe an arrival before that sweep, so arrivals are buffered rather
// than scheduled: the deadline is the only event a round puts on the clock. The
// paper's timing claim — an (f+1)-round extended run costs (f+1)(D+δ)
// against min(f+2, t+1)·D classically — thereby becomes executable:
// sim.Result.SimTime is measured from the event clock, not derived
// analytically.
//
// Synchrony is an assumption the latency model may violate: a data message
// whose latency exceeds D, or a control message whose latency exceeds D + δ,
// is a timing fault. The engine maps it to a receive omission — the message
// was transmitted but its destination never sees it (metrics.Counters.Late)
// — which is exactly how partial synchrony degrades into the omission fault
// model of the round engines.
//
// The round semantics are not transcribed here: the engine runs sim's round
// kernel (sim.Kernel) for every send and receive phase, and keeps only event
// scheduling and latency pricing. When every latency respects the bound the
// engine is therefore semantically identical to internal/sim, bit for bit:
// same decisions, decide rounds, crash and omission bookkeeping, and traffic
// counters. The differential tests and the sweep harness's CrossCheck mode
// check the scheduling that makes this so; only SimTime distinguishes the
// engines.
//
// The hot path is built for reuse: a round's arrivals fill one grow-only
// buffer, the per-round deadline is one batched sweep event instead of n
// per-process timers, inbox scratch is recycled across rounds, and Reset
// rewinds an Engine — including its des.Sim and every buffer — for the next
// job without reallocating.
package timed

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config configures a timed execution.
type Config struct {
	// Model selects classic or extended semantics (round duration D vs D+δ).
	Model sim.Model
	// Horizon bounds the number of rounds; zero defaults to n + 2.
	Horizon sim.Round
	// Trace, if non-nil, receives the execution transcript (with simulated
	// timestamps in the details).
	Trace *trace.Log
	// Latency prices messages and fixes the synchrony bound; nil uses
	// DefaultModel.
	Latency LatencyModel
	// Telemetry, if non-nil, receives run/round spans on event-clock time,
	// per-round traffic series, and — through the engine's des.Sim — event-
	// batch spans and heap/pool samples on the DES track. The nil path costs
	// nothing.
	Telemetry *telemetry.Recorder
}

// Engine executes one job on the discrete-event clock. A fresh engine (New)
// runs one job; Reset rearms it for the next job while keeping every buffer,
// which is what lets the harness mark the timed engine Reusable.
type Engine struct {
	cfg Config
	k   sim.Kernel
	lat LatencyModel

	d, delta des.Time
	roundDur des.Time

	// arrivals holds the open round's in-bound messages in send order, each
	// with its arrival time; the deadline sweep accepts and empties it.
	arrivals []arrival
	// sweepAct is the single per-round deadline event, reused every round
	// (at most one is ever outstanding).
	sweepAct sweepAction

	ds     des.Sim
	rounds sim.Round
	err    error
	ran    bool

	// roundOpenT is the open round's start time, the start of its telemetry
	// span.
	roundOpenT des.Time
}

// arrival is an in-bound message and the simulated time it reaches its
// destination.
type arrival struct {
	at des.Time
	m  sim.Message
}

// sweepAction is the batched round-deadline event: one timer per round in
// place of n per-process receive timers plus a controller.
type sweepAction struct {
	e *Engine
	r sim.Round
}

// Act implements des.Action.
func (s *sweepAction) Act() { s.e.sweep(s.r) }

// link is the engine as the round kernel sees it: the Transmitter that
// prices and buffers every transmitted message, and the Clock that stamps
// the kernel's trace lines with event-clock time.
type link Engine

// Transmit implements sim.Transmitter.
func (l *link) Transmit(m sim.Message) { (*Engine)(l).send(m) }

// Now implements sim.Clock.
func (l *link) Now() float64 { return float64(l.ds.Now()) }

// New builds a timed engine over the given processes (ids 1..n in order).
func New(cfg Config, procs []sim.Process, adv sim.Adversary) (*Engine, error) {
	e := &Engine{}
	e.sweepAct.e = e
	if err := e.Reset(cfg, procs, adv); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rearms the engine for a new job, keeping the event pool, the heap,
// the inbox scratch and the arrival buffer of previous runs. Validation
// happens before any mutation, so on error the engine is unchanged and still
// holds its previous (consumed) job.
func (e *Engine) Reset(cfg Config, procs []sim.Process, adv sim.Adversary) error {
	h, err := sim.ValidateJob("timed", cfg.Horizon, procs, adv)
	if err != nil {
		return err
	}
	cfg.Horizon = h
	lat := cfg.Latency
	if lat == nil {
		lat = DefaultModel()
	}
	if err := validateModel(lat); err != nil {
		return err
	}
	e.cfg, e.lat = cfg, lat
	e.d, e.delta = lat.Params()
	e.roundDur = e.d
	if cfg.Model == sim.ModelExtended {
		e.roundDur += e.delta
	}
	e.k.Arm(sim.Config{Model: cfg.Model, Horizon: h, Trace: cfg.Trace, Telemetry: cfg.Telemetry},
		procs, adv, (*link)(e), (*link)(e))
	e.arrivals = e.arrivals[:0] // a send-phase error leaves a round's arrivals behind
	e.ds.Reset()
	e.ds.Telemetry = cfg.Telemetry
	e.rounds = 0
	e.err = nil
	e.ran = false
	e.roundOpenT = 0
	return nil
}

// Run executes the system on the event clock until every alive process has
// halted, the horizon is reached, or a model violation occurs. It returns
// the result in all cases; the result is partial when err != nil. The result
// is the engine's own and valid until its next Run or Reset; Clone it to keep
// it longer. Run may be called once per job (use Reset to arm the next one).
func (e *Engine) Run() (*sim.Result, error) {
	if e.ran {
		return nil, errors.New("timed: Engine.Run called twice (Reset the engine between jobs)")
	}
	e.ran = true
	// Round 1 opens at t=0: run it directly instead of scheduling a
	// one-shot bootstrap event. A send-phase failure here aborts before the
	// event loop starts (inside the loop, fail's Stop would do the same).
	e.roundStart(1)
	if e.err == nil {
		e.ds.Run(des.Infinity)
	}
	res := e.k.Finish(e.rounds, float64(e.ds.Now()), e.err == nil)
	res.SimTime = float64(e.ds.Now())
	if err := e.ds.Audit(); err != nil {
		res.ClockViolation = err.Error()
	}
	return res, e.err
}

// fail aborts the run after the current event.
func (e *Engine) fail(err error) {
	e.err = err
	e.ds.Stop()
}

// roundStart opens round r at the current simulated time: it runs the send
// phase of every active process in id order (the same adversary consultation
// order as the deterministic engine), which buffers each in-bound message's
// arrival, then arms the round's deadline sweep.
func (e *Engine) roundStart(r sim.Round) {
	e.rounds = r
	e.roundOpenT = e.ds.Now()
	for i := range e.k.N() {
		if !e.k.Active(i) {
			continue
		}
		if err := e.k.SendPhase(i, r); err != nil {
			e.fail(err)
			return
		}
	}
	// One sweep event covers every process due at this deadline (processes
	// already crashed or halted receive nothing — Accept refuses deliveries
	// to both — so the sweep skips them). Alive/halted flags only change
	// inside send phases and sweeps, never between them, so the sweep sees
	// exactly the processes a per-process timer scheme would have armed.
	e.sweepAct.r = r
	e.ds.AtAct(e.roundOpenT+e.roundDur, &e.sweepAct)
}

// sweep is the round's deadline event: it accepts the round's arrivals, then
// runs the receive and computation phase of every active process in id order
// — the order n per-process timers would have fired in under FIFO ties — and
// finally the round controller.
//
// Accepting in send order is exact: every arrival meets the destination
// state the sends left, and SortInbox orders an inbox stably by (sender,
// kind), where equal-key messages to one destination share one arrival time
// (the latency model is pure) and so arrived in send order. Only a transcript
// shows arrival order: a traced run stable-sorts by arrival time first.
func (e *Engine) sweep(r sim.Round) {
	tracing := e.cfg.Trace.Enabled()
	if tracing {
		slices.SortStableFunc(e.arrivals, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
	}
	for _, a := range e.arrivals {
		if e.k.Accept(a.m) && tracing {
			e.cfg.Trace.Add(trace.Event{Round: int(a.m.Round), Kind: trace.KindDeliver,
				From: int(a.m.From), To: int(a.m.To),
				Detail: fmt.Sprintf("%s t=%g", a.m.Kind, float64(a.at))})
		}
	}
	e.arrivals = e.arrivals[:0]
	for i := range e.k.N() {
		if !e.k.Active(i) {
			continue
		}
		if err := e.k.ReceivePhase(i, r); err != nil {
			e.fail(err)
			return
		}
	}
	e.roundEnd(r)
}

// send prices one transmitted message: its latency is sampled and — if the
// latency respects the synchrony bound of its kind — its arrival is buffered
// for the round's deadline sweep. A latency beyond the bound is a timing
// fault: the message misses its round and is mapped to a receive omission at
// the destination (Counters.Late). The explicit bound check is what keeps an
// in-bound message inside its round: every bound is at most the round
// duration, so no buffered arrival falls after the deadline.
func (e *Engine) send(m sim.Message) {
	lat := e.lat.Latency(m.From, m.To, m.Round, m.Kind)
	bound := e.d
	if m.Kind == sim.Control {
		bound = e.d + e.delta
	}
	if e.cfg.Trace.Enabled() {
		e.cfg.Trace.Add(trace.Event{Round: int(m.Round), Kind: trace.KindSend,
			From: int(m.From), To: int(m.To),
			Detail: fmt.Sprintf("%s t=%g lat=%g", m.Kind, float64(e.ds.Now()), float64(lat))})
	}
	if lat > bound {
		e.k.Late(m)
		if e.cfg.Trace.Enabled() {
			e.cfg.Trace.Add(trace.Event{Round: int(m.Round), Kind: trace.KindDrop,
				From: int(m.From), To: int(m.To),
				Detail: fmt.Sprintf("%s late (lat %g > bound %g; timing fault -> receive omission)",
					m.Kind, float64(lat), float64(bound))})
		}
		return
	}
	e.arrivals = append(e.arrivals, arrival{at: e.ds.Now() + lat, m: m})
}

// roundEnd is the round controller, run at the end of the deadline sweep:
// it decides whether the system is done, out of budget, or starts round r+1
// at the current time (rounds are back to back — the receive and computation
// phases fit inside the round's D, per the model).
func (e *Engine) roundEnd(r sim.Round) {
	e.k.RecordRound(r, float64(e.roundOpenT), float64(e.ds.Now()))
	if e.k.Quiet() {
		e.ds.Stop()
		return
	}
	if r >= e.cfg.Horizon {
		e.fail(sim.ErrNoProgress)
		return
	}
	e.roundStart(r + 1)
}
