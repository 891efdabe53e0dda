package sim

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Transmitter is an engine's half of a send phase: the kernel hands it every
// message that leaves its sender, already counted as transmitted, and the
// engine decides when — and whether — the message reaches the destination's
// inbox (Kernel.Accept, or the round engine's immediate delivery).
type Transmitter interface {
	Transmit(m Message)
}

// Clock stamps the kernel's crash and decide trace lines with an engine's
// simulated time. The round engine has none.
type Clock interface {
	Now() float64
}

// ValidateJob checks a job the way every engine does — at least one process,
// ids 1..n in order, a non-nil adversary — with errors prefixed by the
// engine's package name, and returns the job's horizon: the configured one,
// or n + 2 when that is zero.
func ValidateJob(pkg string, horizon Round, procs []Process, adv Adversary) (Round, error) {
	if len(procs) == 0 {
		return 0, errors.New(pkg + ": no processes")
	}
	for i, p := range procs {
		if p.ID() != ProcID(i+1) {
			return 0, fmt.Errorf("%s: process at index %d has id %d, want %d", pkg, i, p.ID(), i+1)
		}
	}
	if adv == nil {
		return 0, errors.New(pkg + ": nil adversary")
	}
	if horizon <= 0 {
		horizon = Round(len(procs) + 2)
	}
	return horizon, nil
}

// Kernel is the one copy of the round semantics the engines share: the send
// phase of a process (plan, validation, crash and omission decisions, the
// fate of every planned message), its receive phase (receive omissions,
// delivery ledger, canonical inbox order, decide and halt bookkeeping), the
// per-process state both phases update, and the result and telemetry built
// from it. An engine supplies only scheduling: which process runs which
// phase when, and how a transmitted message reaches its destination's inbox.
//
// All per-process state lives in slices indexed by process (id-1) and grows
// only when the process count exceeds every earlier one, so with tracing
// disabled a rearmed kernel runs without allocating. The phases of distinct
// processes touch distinct per-process state and the accumulator (Acc) they
// are handed only, so an engine may run them concurrently — one accumulator
// per worker, an adversary and a Transmitter safe for concurrent calls, and
// no trace.
type Kernel struct {
	cfg   Config
	procs []Process
	adv   Adversary
	omit  Omitter // adv's omission extension, nil when absent
	tx    Transmitter
	clock Clock

	ps       []procState
	out      []Outcome // per-process outcome so far; Finish's result reads it in place
	recvOmit [][]bool  // receive-omission mask of the current round, omitters only
	acc      Acc       // the kernel's own accumulator: after a merge, the run's totals
	tel      roundTelemetry
	res      Result // the result Finish hands out, recycled by the next Arm
}

// procState is the kernel's state of one process.
type procState struct {
	alive, halted bool
	inbox         []Message // the current round's mail
}

// Acc is one worker's share of the round state that is not indexed by
// process: the plan validator's scratch, the traffic counters, the message
// ledger and the number of processes that stopped (crashed or halted). A
// sequential engine hands every phase the kernel's own (Kernel.Acc); a
// concurrent one gives each worker its own and folds them in with
// Kernel.Merge after every barrier. Every total is a sum, so the merge order
// does not matter. The zero value is ready to use.
type Acc struct {
	val     PlanValidator
	ctr     metrics.Counters
	led     metrics.Ledger
	stopped int
}

// inboxSeedCap is the per-process inbox capacity carved out of the flat
// buffer a fresh kernel allocates: enough for the faithful protocols (at most
// one data and one control message per round) plus slack. Flooding protocols
// outgrow it; push then re-carves every inbox from one larger slab.
const inboxSeedCap = 4

// Arm installs a job validated by ValidateJob (cfg.Horizon already set),
// rewinding every process to alive, unhalted and undecided and every counter
// to zero. tx receives the job's transmitted messages; clock, if non-nil,
// stamps trace lines.
func (k *Kernel) Arm(cfg Config, procs []Process, adv Adversary, tx Transmitter, clock Clock) {
	n := len(procs)
	k.cfg, k.procs, k.adv, k.tx, k.clock = cfg, procs, adv, tx, clock
	k.omit, _ = adv.(Omitter)
	if cap(k.ps) < n {
		k.ps = make([]procState, n)
		k.out = make([]Outcome, n)
		// Seed every inbox from one flat backing array: a fresh kernel pays
		// one allocation instead of one per first delivery per process.
		k.carveInboxes(inboxSeedCap)
	}
	k.ps, k.out = k.ps[:n], k.out[:n]
	for i := range k.ps {
		p := &k.ps[i]
		p.alive, p.halted, p.inbox = true, false, p.inbox[:0]
	}
	clear(k.out)
	// The receive-omission scratch exists only for omission-capable
	// adversaries, so the crash-model path (and its allocation count) is
	// untouched by the omission fault model.
	if k.omit == nil {
		k.recvOmit = k.recvOmit[:0]
	} else if cap(k.recvOmit) < n {
		k.recvOmit = make([][]bool, n)
	} else {
		k.recvOmit = k.recvOmit[:n]
		clear(k.recvOmit)
	}
	k.acc = Acc{val: k.acc.val}
	k.tel = roundTelemetry{}
}

// N returns the number of processes.
func (k *Kernel) N() int { return len(k.procs) }

// Active reports whether process p_{i+1} still runs rounds: alive and not
// halted. Engines run both phases of a round for exactly these processes.
func (k *Kernel) Active(i int) bool { return k.ps[i].alive && !k.ps[i].halted }

// Quiet reports whether every alive process has halted. The kernel counts
// the processes that stop, so this is O(1) per call; a concurrent engine
// asks only after merging its workers' accumulators.
func (k *Kernel) Quiet() bool { return k.acc.stopped == len(k.procs) }

// Acc returns the kernel's own accumulator, the one a sequential engine
// hands every phase.
func (k *Kernel) Acc() *Acc { return &k.acc }

// Merge folds a worker's accumulator into the kernel's own and zeroes its
// sums; the worker keeps its validator scratch.
func (k *Kernel) Merge(a *Acc) {
	k.acc.ctr.Merge(a.ctr)
	k.acc.led.Merge(a.led)
	k.acc.stopped += a.stopped
	*a = Acc{val: a.val}
}

// SendPhase runs the send phase of the active process p_{i+1} in round r: its
// plan, the model and plan checks, the crash decision and — for a survivor —
// the omission decision, then both sending steps. A crash lets the escaped
// data subset and control prefix out and drops the rest; a send omission
// suppresses its masked messages and lets the rest out. Every message that
// leaves is counted in a and handed to the engine's Transmitter.
func (k *Kernel) SendPhase(a *Acc, i int, r Round) error {
	id := ProcID(i + 1)
	plan := k.procs[i].Send(r)
	if k.cfg.Model == ModelClassic && len(plan.Control) > 0 {
		return fmt.Errorf("%w (process p%d, round %d)", ErrControlInClassic, id, r)
	}
	if err := a.val.Validate(id, len(k.procs), plan); err != nil {
		return fmt.Errorf("%v (round %d)", err, r)
	}
	crash, outcome := k.adv.Crashes(id, r, plan)
	var om Omission
	if crash {
		if !outcome.ValidFor(plan) {
			return fmt.Errorf("%w (process p%d, round %d)", ErrBadOutcome, id, r)
		}
		k.ps[i].alive = false
		k.out[i].CrashRound = r
		a.stopped++
		if k.cfg.Trace.Enabled() {
			k.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindCrash, From: int(id),
				Detail: fmt.Sprintf("%sduring send (data %s, ctrl prefix %d/%d)", k.stamp("t=%g "),
					subsetString(outcome.DataDelivered), outcome.CtrlPrefix, len(plan.Control))})
		}
	} else if k.omit != nil {
		om = k.omit.Omits(id, r, plan)
		if !om.IsZero() {
			if !om.ValidFor(plan) {
				return fmt.Errorf("%w (process p%d, round %d)", ErrBadOmission, id, r)
			}
			k.out[i].OmissiveRounds++
			if k.cfg.Trace.Enabled() {
				k.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindNote, From: int(id),
					Detail: omissionString(om)})
			}
		}
		k.recvOmit[i] = om.Recv
	}
	for j, o := range plan.Data {
		switch {
		case crash && !outcome.DataDelivered[j]:
			a.ctr.DroppedData++
			k.traceDrop(r, id, o.To, "data")
		case om.Data != nil && !om.Data[j]:
			a.ctr.OmittedData++
			k.traceDrop(r, id, o.To, "data (send omission)")
		default:
			m := Message{From: id, To: o.To, Round: r, Kind: Data, Payload: o.Payload}
			a.ctr.AddData(m.Bits())
			k.tx.Transmit(m)
		}
	}
	for j, to := range plan.Control {
		switch {
		case crash && j >= outcome.CtrlPrefix:
			a.ctr.DroppedCtrl++
			k.traceDrop(r, id, to, "control")
		case om.Ctrl != nil && !om.Ctrl[j]:
			a.ctr.OmittedCtrl++
			k.traceDrop(r, id, to, "control (send omission)")
		default:
			a.ctr.AddCtrl()
			k.tx.Transmit(Message{From: id, To: to, Round: r, Kind: Control})
		}
	}
	return nil
}

// Accept queues a message arriving after the send phase for its
// destination's receive phase and reports true, or refuses it — accounted by
// the destination's state — when the destination has crashed or halted.
func (k *Kernel) Accept(m Message) bool {
	p := &k.ps[m.To-1]
	switch {
	case !p.alive:
		k.acc.led.DeadDest(m.Kind == Control)
	case p.halted:
		k.acc.led.HaltedDest(m.Kind == Control)
	default:
		k.push(p, m)
		return true
	}
	return false
}

// push appends m to the inbox of its destination p. A full inbox does not
// reallocate alone: every inbox is re-carved, its queued mail with it, from
// one slab of twice the largest capacity, so a flooding run's growth costs
// one allocation per doubling instead of one per process.
func (k *Kernel) push(p *procState, m Message) {
	if len(p.inbox) == cap(p.inbox) {
		c := 0
		for i := range k.ps {
			c = max(c, cap(k.ps[i].inbox))
		}
		k.carveInboxes(2 * c)
	}
	p.inbox = append(p.inbox, m)
}

// carveInboxes gives every process an inbox of capacity c in one new slab,
// each holding the mail its old one queued.
func (k *Kernel) carveInboxes(c int) {
	slab := make([]Message, len(k.ps)*c)
	for i := range k.ps {
		in := k.ps[i].inbox
		k.ps[i].inbox = slab[i*c : i*c+copy(slab[i*c:], in) : (i+1)*c]
	}
}

// SetInbox hands the active process p_{i+1} its mail of the current round in
// storage the engine owns, for an engine whose workers gather each
// receiver's mail themselves instead of calling Accept. The receive phase
// filters and sorts it in place before delivering it, so the engine must
// not reuse the storage until that phase has run.
func (k *Kernel) SetInbox(i int, mail []Message) { k.ps[i].inbox = mail }

// Late accounts a transmitted message that missed its round: a timing fault,
// which its destination sees as a receive omission.
func (k *Kernel) Late(m Message) {
	k.acc.led.Late(m.Kind == Control)
}

// ReceivePhase runs the receive and computation phase of the active process
// p_{i+1} in round r: it filters the inbox through the round's
// receive-omission mask, records the deliveries, sorts the inbox into the
// canonical order, hands it to the process and books a first decision and a
// halt, accounting in a.
func (k *Kernel) ReceivePhase(a *Acc, i int, r Round) error {
	p, id := k.procs[i], ProcID(i+1)
	st := &k.ps[i]
	in := st.inbox
	st.inbox = in[:0] // recycle the buffer for the next round
	if i < len(k.recvOmit) && k.recvOmit[i] != nil {
		in = k.applyRecvOmission(a, in, k.recvOmit[i], r)
	}
	for _, m := range in {
		a.led.Delivered(m.Kind == Control)
	}
	SortInbox(in)
	p.Receive(r, in)
	if v, ok := p.Decided(); ok && k.out[i].DecideRound == 0 {
		k.out[i].Value, k.out[i].DecideRound = v, r
		if k.cfg.Trace.Enabled() {
			k.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindDecide,
				From: int(id), Detail: fmt.Sprintf("value %d", int64(v)) + k.stamp(" t=%g")})
		}
	}
	if p.Halted() {
		if k.out[i].DecideRound == 0 {
			return fmt.Errorf("%w (process p%d, round %d)", ErrHaltedWithoutDecision, id, r)
		}
		st.halted = true
		a.stopped++
		if k.cfg.Trace.Enabled() {
			k.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindHalt, From: int(id)})
		}
	}
	return nil
}

// applyRecvOmission compacts an inbox in place to the messages that survive a
// receive-omission mask, accounting the suppressed deliveries.
func (k *Kernel) applyRecvOmission(a *Acc, in []Message, mask []bool, r Round) []Message {
	w := 0
	for _, m := range in {
		if i := int(m.From) - 1; i < len(mask) && !mask[i] {
			a.led.RecvOmitted(m.Kind == Control)
			// A constant detail: a concatenation would allocate per
			// omitted message, traced or not.
			detail := "data (receive omission)"
			if m.Kind == Control {
				detail = "control (receive omission)"
			}
			k.traceDrop(r, m.From, m.To, detail)
			continue
		}
		in[w] = m
		w++
	}
	return in[:w]
}

// RecordRound emits the telemetry of finished round r, spanning [t0, t1] on
// the engine's clock. It does nothing when the job records no telemetry.
func (k *Kernel) RecordRound(r Round, t0, t1 float64) {
	k.tel.record(k.cfg.Telemetry, r, t0, t1, k.acc.ctr, k.acc.led)
}

// Finish builds the result of a job that ended after round r at engine time
// t and, for a clean run, records its run telemetry. The result is the
// kernel's own: every field is overwritten here, its Procs is the kernel's
// outcome slice, and the next Arm rewinds both, so a caller that keeps it
// past that keeps a Clone.
func (k *Kernel) Finish(r Round, t float64, clean bool) *Result {
	k.res = Result{Rounds: r, Procs: k.out, Counters: k.acc.ctr, Ledger: k.acc.led}
	k.res.Counters.Rounds = int(r)
	// The ledger books each receive omission and late message by kind; the
	// aggregate counters are its sums.
	led := &k.acc.led
	k.res.Counters.OmittedRecv = led.RecvOmitData + led.RecvOmitCtrl
	k.res.Counters.Late = led.LateData + led.LateCtrl
	if clean {
		recordRun(k.cfg.Telemetry, r, t)
	}
	return &k.res
}

// stamp renders the engine clock's time through format, or "" without a
// clock.
func (k *Kernel) stamp(format string) string {
	if k.clock == nil {
		return ""
	}
	return fmt.Sprintf(format, k.clock.Now())
}

// traceDrop records a suppressed message when tracing is enabled.
func (k *Kernel) traceDrop(r Round, from, to ProcID, detail string) {
	if k.cfg.Trace.Enabled() {
		k.cfg.Trace.Add(trace.Event{Round: int(r), Kind: trace.KindDrop,
			From: int(from), To: int(to), Detail: detail})
	}
}

// roundTelemetry emits the telemetry of finished rounds: a round span and the
// round's traffic deltas against the counters of the previous round's end.
// The zero value starts from zero counters.
type roundTelemetry struct {
	ctr metrics.Counters
	led metrics.Ledger
}

// record emits round r, spanning [t0, t1], given the run's counters and
// ledger at its end. It does nothing when rec is disabled.
func (s *roundTelemetry) record(rec *telemetry.Recorder, r Round, t0, t1 float64, ctr metrics.Counters, led metrics.Ledger) {
	if !rec.Enabled() {
		return
	}
	rec.Span(telemetry.SpanRound, telemetry.TrackEngine, int32(r), 0, t0, t1)
	dc := ctr.Minus(s.ctr)
	dl := led.Minus(s.led)
	rec.Sample(telemetry.SeriesDataMsgs, t1, float64(dc.DataMsgs))
	rec.Sample(telemetry.SeriesCtrlMsgs, t1, float64(dc.CtrlMsgs))
	rec.Sample(telemetry.SeriesDelivered, t1, float64(dl.DeliveredData+dl.DeliveredCtrl))
	rec.Sample(telemetry.SeriesDropped, t1, float64(dc.DroppedData+dc.DroppedCtrl))
	rec.Sample(telemetry.SeriesOmitted, t1, float64(dc.OmittedData+dc.OmittedCtrl+dl.RecvOmitData+dl.RecvOmitCtrl))
	rec.Sample(telemetry.SeriesLate, t1, float64(dl.LateData+dl.LateCtrl))
	s.ctr, s.led = ctr, led
}

// recordRun emits the run span of a clean r-round run that finished at
// engine time t, and its rounds per simulated time unit — 1 by construction
// on the round abstraction, where round r ends at t = r. It does nothing when
// rec is disabled.
func recordRun(rec *telemetry.Recorder, r Round, t float64) {
	if !rec.Enabled() {
		return
	}
	rec.Span(telemetry.SpanRun, telemetry.TrackEngine, 0, int32(r), 0, t)
	if t > 0 {
		rec.Sample(telemetry.SeriesRoundsPerSec, t, float64(r)/t)
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
