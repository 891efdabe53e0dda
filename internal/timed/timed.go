// Package timed is a continuous-time consensus engine: it executes the same
// sim.Process state machines as the round-based engines (internal/sim,
// internal/lockstep), under the same sim.Adversary / sim.Omitter fault
// interfaces, but on a discrete-event simulation (internal/des) in which
// every data and control message is a timed event priced by a pluggable
// LatencyModel.
//
// Round boundaries emerge from timers rather than lockstep barriers: a round
// starts at simulated time T, each alive process executes its send phase and
// every transmitted message is scheduled to arrive at T plus its sampled
// latency; one deadline sweep fires at the round deadline T + D (classic
// model) or T + D + δ (extended model), delivers whatever arrived in time to
// each process in id order, and runs the local computation phases. The
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
// When every latency respects the bound the engine is semantically identical
// to internal/sim, bit for bit: same decisions, decide rounds, crash and
// omission bookkeeping, and traffic counters. The differential tests and the
// sweep harness's CrossCheck mode enforce this; only SimTime distinguishes
// the engines.
//
// The hot path is built for reuse: message arrivals ride pooled delivery
// records (des.Action) instead of per-message closures, the per-round
// deadline is one batched sweep event instead of n per-process timers, inbox
// scratch is recycled across rounds, and Reset rewinds an Engine — including
// its des.Sim and every pool — for the next job without reallocating.
package timed

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/metrics"
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
	cfg   Config
	procs []sim.Process
	adv   sim.Adversary
	omit  sim.Omitter
	val   sim.PlanValidator
	lat   LatencyModel

	d, delta des.Time
	roundDur des.Time

	alive    []bool
	halted   []bool
	out      []sim.Outcome // per-process outcome so far; Run hands out a copy
	recvOmit [][]bool
	inbox    [][]sim.Message

	aliveUnhalted int
	ctr           metrics.Counters
	led           metrics.Ledger

	// Pooled arrival records: one per in-flight message, recycled the moment
	// the message is delivered. freeDel is the free list; allDel pins every
	// record ever allocated so Reset can reclaim the ones still in flight
	// when a run is cut short.
	freeDel []*delivery
	allDel  []*delivery
	// sweepAct is the single per-round deadline event, reused every round
	// (at most one is ever outstanding).
	sweepAct sweepAction

	ds     des.Sim
	rounds sim.Round
	err    error
	ran    bool

	// Telemetry bookkeeping: the open round's start time and the counter
	// snapshots backing per-round deltas. Touched only when recording.
	roundOpenT des.Time
	telCtr     metrics.Counters
	telLed     metrics.Ledger
}

// delivery is a pooled message arrival: the allocation-free replacement for
// the per-message `func() { e.arrive(m) }` closure.
type delivery struct {
	e *Engine
	m sim.Message
}

// Act implements des.Action: deliver the message and recycle the record. The
// record is released before delivery (mirroring des.Sim.Run) so nothing
// dangles if arrive ends the run.
func (d *delivery) Act() {
	e, m := d.e, d.m
	e.freeDel = append(e.freeDel, d)
	e.arrive(m)
}

// sweepAction is the batched round-deadline event: one timer per round in
// place of n per-process receive timers plus a controller.
type sweepAction struct {
	e *Engine
	r sim.Round
}

// Act implements des.Action.
func (s *sweepAction) Act() { s.e.sweep(s.r) }

// New builds a timed engine over the given processes (ids 1..n in order).
func New(cfg Config, procs []sim.Process, adv sim.Adversary) (*Engine, error) {
	e := &Engine{}
	e.sweepAct.e = e
	if err := e.init(cfg, procs, adv); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rearms the engine for a new job, keeping the event pool, the heap,
// the inbox scratch and the delivery records of previous runs. On error the
// engine is unchanged and still holds its previous (consumed) job.
func (e *Engine) Reset(cfg Config, procs []sim.Process, adv sim.Adversary) error {
	return e.init(cfg, procs, adv)
}

// init validates and installs a job; shared by New and Reset. Validation
// happens before any mutation so a failed Reset leaves the engine intact.
func (e *Engine) init(cfg Config, procs []sim.Process, adv sim.Adversary) error {
	if len(procs) == 0 {
		return errors.New("timed: no processes")
	}
	for i, p := range procs {
		if p.ID() != sim.ProcID(i+1) {
			return fmt.Errorf("timed: process at index %d has id %d, want %d", i, p.ID(), i+1)
		}
	}
	if adv == nil {
		return errors.New("timed: nil adversary")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = sim.Round(len(procs) + 2)
	}
	lat := cfg.Latency
	if lat == nil {
		lat = DefaultModel()
	}
	if err := validateModel(lat); err != nil {
		return err
	}
	n := len(procs)
	e.cfg, e.procs, e.adv, e.lat = cfg, procs, adv, lat
	e.omit, _ = adv.(sim.Omitter)
	e.d, e.delta = lat.Params()
	e.roundDur = e.d
	if cfg.Model == sim.ModelExtended {
		e.roundDur += e.delta
	}
	e.alive = resize(e.alive, n)
	e.halted = resize(e.halted, n)
	e.out = resize(e.out, n)
	if cap(e.inbox) < n {
		e.inbox = make([][]sim.Message, n)
	} else {
		e.inbox = e.inbox[:n]
		for i := range e.inbox {
			e.inbox[i] = e.inbox[i][:0]
		}
	}
	if e.omit != nil {
		e.recvOmit = resize(e.recvOmit, n)
	} else {
		e.recvOmit = e.recvOmit[:0]
	}
	for i := range e.alive {
		e.alive[i] = true
	}
	e.aliveUnhalted = n
	e.ctr = metrics.Counters{}
	e.led = metrics.Ledger{}
	e.freeDel = append(e.freeDel[:0], e.allDel...)
	e.ds.Reset()
	e.ds.Telemetry = cfg.Telemetry
	e.rounds = 0
	e.err = nil
	e.ran = false
	e.roundOpenT = 0
	e.telCtr = metrics.Counters{}
	e.telLed = metrics.Ledger{}
	return nil
}

// resize returns s resized to n zeroed elements, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// allocDel takes a delivery record from the free list, growing it by a slab
// when empty (same amortization as the des event pool).
func (e *Engine) allocDel() *delivery {
	if len(e.freeDel) == 0 {
		blk := make([]delivery, 32)
		for i := range blk {
			blk[i].e = e
			e.allDel = append(e.allDel, &blk[i])
			e.freeDel = append(e.freeDel, &blk[i])
		}
	}
	d := e.freeDel[len(e.freeDel)-1]
	e.freeDel = e.freeDel[:len(e.freeDel)-1]
	return d
}

// Run executes the system on the event clock until every alive process has
// halted, the horizon is reached, or a model violation occurs. It returns
// the result in all cases; the result is partial when err != nil. Run may be
// called once per job (use Reset to arm the next one).
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

	res := &sim.Result{
		Rounds:   e.rounds,
		Procs:    slices.Clone(e.out),
		Counters: e.ctr,
		Ledger:   e.led,
		SimTime:  float64(e.ds.Now()),
	}
	if err := e.ds.Audit(); err != nil {
		res.ClockViolation = err.Error()
	}
	res.Counters.Rounds = int(e.rounds)
	if e.cfg.Telemetry.Enabled() && e.err == nil {
		e.cfg.Telemetry.Span(telemetry.SpanRun, telemetry.TrackEngine, 0, int32(e.rounds), 0, res.SimTime)
		if res.SimTime > 0 {
			e.cfg.Telemetry.Sample(telemetry.SeriesRoundsPerSec, res.SimTime,
				float64(e.rounds)/res.SimTime)
		}
	}
	return res, e.err
}

// recordRound emits the telemetry of one finished round: a round span over
// its event-clock interval and the per-round traffic deltas against the
// previous snapshot. Called at the end of the deadline sweep, only when
// recording.
func (e *Engine) recordRound(r sim.Round) {
	rec := e.cfg.Telemetry
	t := float64(e.ds.Now())
	rec.Span(telemetry.SpanRound, telemetry.TrackEngine, int32(r), 0, float64(e.roundOpenT), t)
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

// fail aborts the run after the current event.
func (e *Engine) fail(err error) {
	e.err = err
	e.ds.Stop()
}

// allQuiet reports whether every alive process has halted.
func (e *Engine) allQuiet() bool { return e.aliveUnhalted == 0 }

// roundStart opens round r at the current simulated time: it runs the send
// phase of every alive, unhalted process in id order (the same adversary
// consultation order as the deterministic engine), scheduling each
// transmitted message's arrival, then arms the round's deadline sweep. FIFO
// tie-breaking in the event queue guarantees that an arrival at exactly the
// deadline still precedes the sweep (it was scheduled earlier), so the
// receive phases observe exactly the messages that respected the bound.
func (e *Engine) roundStart(r sim.Round) {
	e.rounds = r
	e.roundOpenT = e.ds.Now()
	deadline := e.ds.Now() + e.roundDur
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
		if e.cfg.Model == sim.ModelClassic && len(plan.Control) > 0 {
			e.fail(fmt.Errorf("%w (process p%d, round %d)", sim.ErrControlInClassic, id, r))
			return
		}
		if err := e.val.Validate(id, len(e.procs), plan); err != nil {
			e.fail(fmt.Errorf("%v (round %d)", err, r))
			return
		}
		crash, outcome := e.adv.Crashes(id, r, plan)
		if crash {
			if !outcome.ValidFor(plan) {
				e.fail(fmt.Errorf("%w (process p%d, round %d)", sim.ErrBadOutcome, id, r))
				return
			}
			e.alive[i] = false
			e.out[i].CrashRound = r
			e.aliveUnhalted--
			if e.cfg.Trace.Enabled() {
				e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindCrash, From: int(id),
					Detail: fmt.Sprintf("t=%g during send (data %s, ctrl prefix %d/%d)",
						float64(e.ds.Now()), subsetString(outcome.DataDelivered), outcome.CtrlPrefix, len(plan.Control))})
			}
			e.emitCrashed(id, r, plan, outcome)
			continue
		}
		if e.omit != nil {
			if om := e.omit.Omits(id, r, plan); !om.IsZero() {
				if !om.ValidFor(plan) {
					e.fail(fmt.Errorf("%w (process p%d, round %d)", sim.ErrBadOmission, id, r))
					return
				}
				e.out[i].OmissiveRounds++
				e.recvOmit[i] = om.Recv
				e.emitOmitted(id, r, plan, om)
				continue
			}
		}
		for _, o := range plan.Data {
			e.send(sim.Message{From: id, To: o.To, Round: r, Kind: sim.Data, Payload: o.Payload})
		}
		for _, to := range plan.Control {
			e.send(sim.Message{From: id, To: to, Round: r, Kind: sim.Control})
		}
	}
	// One sweep event covers every process due at this deadline (processes
	// already crashed or halted receive nothing — arrive refuses deliveries
	// to both — so the sweep skips them). Alive/halted flags only change
	// inside send phases and sweeps, never between them, so the sweep sees
	// exactly the processes a per-process timer scheme would have armed.
	e.sweepAct.r = r
	e.ds.AtAct(deadline, &e.sweepAct)
}

// sweep is the round's deadline event: the receive and computation phase of
// every due process in id order — the order n per-process timers would have
// fired in under FIFO ties — followed by the round controller.
func (e *Engine) sweep(r sim.Round) {
	for _, p := range e.procs {
		i := int(p.ID()) - 1
		if !e.alive[i] || e.halted[i] {
			continue
		}
		e.receive(p, r)
		if e.err != nil {
			return
		}
	}
	e.roundEnd(r)
}

// emitCrashed transmits the escaped part of a crashing sender's plan: the
// delivered data subset and the escaped control prefix. Suppressed messages
// are accounted as dropped, exactly like the round engines.
func (e *Engine) emitCrashed(from sim.ProcID, r sim.Round, plan sim.SendPlan, out sim.CrashOutcome) {
	for i, o := range plan.Data {
		if !out.DataDelivered[i] {
			e.ctr.DroppedData++
			e.traceDrop(r, from, o.To, "data")
			continue
		}
		e.send(sim.Message{From: from, To: o.To, Round: r, Kind: sim.Data, Payload: o.Payload})
	}
	for i, to := range plan.Control {
		if i >= out.CtrlPrefix {
			e.ctr.DroppedCtrl++
			e.traceDrop(r, from, to, "control")
			continue
		}
		e.send(sim.Message{From: from, To: to, Round: r, Kind: sim.Control})
	}
}

// emitOmitted transmits a live sender's plan under a send-omission mask.
func (e *Engine) emitOmitted(from sim.ProcID, r sim.Round, plan sim.SendPlan, om sim.Omission) {
	for i, o := range plan.Data {
		if om.Data != nil && !om.Data[i] {
			e.ctr.OmittedData++
			e.traceDrop(r, from, o.To, "data (send omission)")
			continue
		}
		e.send(sim.Message{From: from, To: o.To, Round: r, Kind: sim.Data, Payload: o.Payload})
	}
	for i, to := range plan.Control {
		if om.Ctrl != nil && !om.Ctrl[i] {
			e.ctr.OmittedCtrl++
			e.traceDrop(r, from, to, "control (send omission)")
			continue
		}
		e.send(sim.Message{From: from, To: to, Round: r, Kind: sim.Control})
	}
}

// send transmits one message: it is accounted as sent, its latency is
// sampled, and — if the latency respects the synchrony bound of its kind —
// its arrival is scheduled on a pooled delivery record. A latency beyond the
// bound is a timing fault: the message misses its round and is mapped to a
// receive omission at the destination (Counters.Late).
func (e *Engine) send(m sim.Message) {
	if m.Kind == sim.Control {
		e.ctr.AddCtrl()
	} else {
		e.ctr.AddData(m.Bits())
	}
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
		e.ctr.Late++
		e.led.Late(m.Kind == sim.Control)
		e.traceDrop(m.Round, m.From, m.To, fmt.Sprintf("%s late (lat %g > bound %g; timing fault -> receive omission)",
			m.Kind, float64(lat), float64(bound)))
		return
	}
	d := e.allocDel()
	d.m = m
	e.ds.AfterAct(lat, d)
}

// arrive delivers a message into its destination's inbox for the current
// round. Messages to crashed processes vanish (they were transmitted and
// accounted; nobody is there to receive them).
func (e *Engine) arrive(m sim.Message) {
	i := int(m.To) - 1
	if !e.alive[i] || e.halted[i] {
		// Crashed: nobody is there. Halted: alive but returned — the round
		// engines discard its deliveries at the receive phase; with the
		// sweep skipping it, the discard happens here instead.
		if !e.alive[i] {
			e.led.DeadDest(m.Kind == sim.Control)
		} else {
			e.led.HaltedDest(m.Kind == sim.Control)
		}
		return
	}
	e.inbox[i] = append(e.inbox[i], m)
	if e.cfg.Trace.Enabled() {
		e.cfg.Trace.Add(trace.Event{Round: int(m.Round), Kind: trace.KindDeliver,
			From: int(m.From), To: int(m.To),
			Detail: fmt.Sprintf("%s t=%g", m.Kind, float64(e.ds.Now()))})
	}
}

// receive is process p's slice of the round-r deadline sweep: the receive
// phase plus the local computation phase, mirroring the deterministic
// engine's receive loop body exactly.
func (e *Engine) receive(p sim.Process, r sim.Round) {
	id := p.ID()
	i := int(id) - 1
	if !e.alive[i] {
		for _, m := range e.inbox[i] {
			e.led.DeadDest(m.Kind == sim.Control)
		}
		e.inbox[i] = e.inbox[i][:0]
		return
	}
	if e.halted[i] {
		// A halted process stays alive but silent; anything delivered to it
		// is discarded.
		for _, m := range e.inbox[i] {
			e.led.HaltedDest(m.Kind == sim.Control)
		}
		e.inbox[i] = e.inbox[i][:0]
		return
	}
	in := e.inbox[i]
	e.inbox[i] = in[:0]
	if i < len(e.recvOmit) && e.recvOmit[i] != nil {
		in = e.applyRecvOmission(in, e.recvOmit[i], r)
	}
	for _, m := range in {
		e.led.Delivered(m.Kind == sim.Control)
	}
	sim.SortInbox(in)
	p.Receive(r, in)
	if v, ok := p.Decided(); ok && e.out[i].DecideRound == 0 {
		e.out[i].Value, e.out[i].DecideRound = v, r
		if e.cfg.Trace.Enabled() {
			e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindDecide,
				From: int(id), Detail: fmt.Sprintf("value %d t=%g", int64(v), float64(e.ds.Now()))})
		}
	}
	if p.Halted() {
		if e.out[i].DecideRound == 0 {
			e.fail(fmt.Errorf("%w (process p%d, round %d)", sim.ErrHaltedWithoutDecision, id, r))
			return
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

// applyRecvOmission compacts an inbox to the messages surviving an
// adversarial receive-omission mask.
func (e *Engine) applyRecvOmission(in []sim.Message, mask []bool, r sim.Round) []sim.Message {
	w := 0
	for _, m := range in {
		if i := int(m.From) - 1; i < len(mask) && !mask[i] {
			e.ctr.OmittedRecv++
			e.led.RecvOmitted(m.Kind == sim.Control)
			e.traceDrop(r, m.From, m.To, m.Kind.String()+" (receive omission)")
			continue
		}
		in[w] = m
		w++
	}
	return in[:w]
}

// roundEnd is the round controller, run at the end of the deadline sweep:
// it decides whether the system is done, out of budget, or starts round r+1
// at the current time (rounds are back to back — the receive and computation
// phases fit inside the round's D, per the model).
func (e *Engine) roundEnd(r sim.Round) {
	if e.cfg.Telemetry.Enabled() {
		e.recordRound(r)
	}
	if e.allQuiet() {
		e.ds.Stop()
		return
	}
	if r >= e.cfg.Horizon {
		e.fail(sim.ErrNoProgress)
		return
	}
	e.roundStart(r + 1)
}

// traceDrop records a suppressed message when tracing is enabled.
func (e *Engine) traceDrop(r sim.Round, from, to sim.ProcID, detail string) {
	if e.cfg.Trace.Enabled() {
		e.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindDrop,
			From: int(from), To: int(to), Detail: detail})
	}
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
