// Package lockstep is a concurrent runtime for the synchronous models: one
// goroutine per process, one two-cell mailbox per directed process pair, and
// a driver that enforces the round structure with phase handshakes.
//
// It executes the same sim.Process state machines as the deterministic engine
// in internal/sim, under the same sim.Adversary interface, and produces the
// same sim.Result. The repository's cross-validation tests run identical
// (process, adversary) configurations through both engines and assert
// identical decisions — evidence that the deterministic kernel faithfully
// implements the model the goroutine runtime realizes "for real".
//
// The mapping onto Go concurrency mirrors the model closely:
//
//   - every ordered pair of processes gets a mailbox of two cells, because a
//     channel of the extended model never holds more than one data message
//     and one control message per round (footnote 3 of the paper); all
//     mailboxes live in one flat slab, where a sender writes only its own
//     column and a receiver drains only its own row;
//   - the send phase of a round runs concurrently in all process goroutines;
//     a crashing process performs the escaped prefix of its sends and then
//     its goroutine goes silent for the rest of the run, exactly like a crash
//     mid-send-phase;
//   - the driver's phase handshakes (start → sent, then recv → done) are the
//     barrier between the send and receive phases, i.e. the model's synchrony
//     assumption (a message sent in round r arrives in round r). They also
//     order every mailbox access, so the slab needs no lock.
//
// Worker goroutines and the slab are persistent and grow-only: a Runtime
// built by New survives its Run, and Reset rearms it — new processes,
// adversary and configuration — spawning workers and reallocating the slab
// only when the process count exceeds every earlier one. That is what makes
// the runtime Reusable to the sweep harness: a worker executing a thousand
// lockstep jobs of any size mix pays for one goroutine set. Call Close to
// terminate the goroutines when the runtime is retired.
//
// Adversary calls are serialized with a mutex, but the order in which
// concurrent processes consult the adversary is scheduling-dependent: use
// order-insensitive adversaries (None, Script, CoordinatorKiller — anything
// that is a pure function of process and round) when comparing against the
// deterministic engine.
package lockstep

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config configures a lockstep run.
type Config struct {
	// Model selects classic or extended semantics.
	Model sim.Model
	// Horizon bounds the number of rounds (default n+2).
	Horizon sim.Round
	// Telemetry, if non-nil, receives run/round spans and per-round traffic
	// series. Recording happens entirely in the single-threaded driver loop
	// (between the phase barriers), so the recorder needs no locking even
	// though the workers run concurrently. The nil path costs nothing.
	Telemetry *telemetry.Recorder
}

// Runtime executes processes concurrently in lockstep rounds. A Runtime runs
// one job per arming: New arms the first job, Reset each subsequent one.
type Runtime struct {
	cfg   Config
	procs []sim.Process
	adv   sim.Adversary
	omit  sim.Omitter // adv's omission extension, nil when absent

	advMu sync.Mutex
	// The mailbox from p_f to p_t is box[2k : 2k+cnt[k]], k = (t−1)·n + (f−1).
	box []sim.Message
	cnt []uint8

	workers []*worker      // grow-only; workers[:n] run the current job
	wg      sync.WaitGroup // one count per spawned worker goroutine

	consumed bool
	closed   bool

	// Driver-side scratch, reused across runs. Indexed by process (id-1).
	alive     []bool
	halted    []bool
	out       []sim.Outcome // per-process outcome so far; finish hands out a copy
	started   []*worker
	receivers []*worker
	drainBuf  []sim.Message
}

// ctlMsg rearms an idle worker for the next run, or shuts it down.
type ctlMsg struct {
	proc     sim.Process
	shutdown bool
}

// sendReport is a worker's account of its send phase.
type sendReport struct {
	crashed bool
	omitted bool // the adversary injected an omission fault this round
	err     error
	ctr     metrics.Counters
}

// recvReport is a worker's account of its receive phase.
type recvReport struct {
	decided bool
	value   sim.Value
	halted  bool
	ctr     metrics.Counters // receive-omission accounting
	led     metrics.Ledger   // delivery-ledger slice of this receive phase
}

// worker is the per-process goroutine state. idx and the channels are fixed
// at spawn; proc is rearmed through ctl and only ever touched by the worker
// goroutine itself — the driver identifies a worker by idx alone.
type worker struct {
	rt  *Runtime
	idx int // process index: the worker runs p_{idx+1}

	proc sim.Process

	ctl   chan ctlMsg
	start chan sim.Round
	sent  chan sendReport
	recv  chan bool // the barrier: true to receive, false to abort the run
	done  chan recvReport

	inbox   []sim.Message     // worker-owned drain scratch
	destCnt []int             // per-destination send count scratch
	val     sim.PlanValidator // workers validate concurrently: one each
}

// loop is the persistent worker goroutine: idle between runs, executing one
// round per start signal. A crash, halt, protocol error or run abort returns
// the worker to idle — never exits the goroutine — so the driver simply
// stops starting it; only a shutdown ctl terminates the loop.
func (w *worker) loop() {
	defer w.rt.wg.Done()
	for {
		select {
		case c := <-w.ctl:
			if c.shutdown {
				return
			}
			w.proc = c.proc
		case r := <-w.start:
			w.rt.round(w, r)
		}
	}
}

// New builds a runtime over the given processes (ids 1..n in order) and arms
// it for one Run.
func New(cfg Config, procs []sim.Process, adv sim.Adversary) (*Runtime, error) {
	rt := &Runtime{}
	if err := rt.init(cfg, procs, adv); err != nil {
		return nil, err
	}
	return rt, nil
}

// Reset rearms the runtime for a new job, reusing the worker goroutines and
// the mailbox slab (they grow only when the process count exceeds every
// earlier one). On error the runtime keeps its previous (consumed) arming.
// Reset must not be called concurrently with Run.
func (rt *Runtime) Reset(cfg Config, procs []sim.Process, adv sim.Adversary) error {
	return rt.init(cfg, procs, adv)
}

// init validates and installs a job; shared by New and Reset. Validation
// happens before any mutation so a failed Reset leaves the runtime intact.
func (rt *Runtime) init(cfg Config, procs []sim.Process, adv sim.Adversary) error {
	if rt.closed {
		return errors.New("lockstep: runtime is closed")
	}
	if len(procs) == 0 {
		return errors.New("lockstep: no processes")
	}
	for i, p := range procs {
		if p.ID() != sim.ProcID(i+1) {
			return fmt.Errorf("lockstep: process at index %d has id %d, want %d", i, p.ID(), i+1)
		}
	}
	if adv == nil {
		return errors.New("lockstep: nil adversary")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = sim.Round(len(procs) + 2)
	}
	n := len(procs)
	for i := len(rt.workers); i < n; i++ {
		w := &worker{
			rt:    rt,
			idx:   i,
			ctl:   make(chan ctlMsg),
			start: make(chan sim.Round),
			sent:  make(chan sendReport, 1),
			recv:  make(chan bool),
			done:  make(chan recvReport, 1),
		}
		rt.workers = append(rt.workers, w)
		rt.wg.Add(1)
		go w.loop()
	}
	if cap(rt.box) < 2*n*n {
		rt.box = make([]sim.Message, 2*n*n)
		rt.cnt = make([]uint8, n*n)
	}
	// An aborted run can leave mail behind; every mailbox starts empty.
	clear(rt.cnt[:n*n])
	rt.cfg, rt.procs, rt.adv = cfg, procs, adv
	rt.omit, _ = adv.(sim.Omitter)
	// The ctl handshake both delivers the new job and orders every write
	// above before the worker's next read of the runtime fields.
	for i, w := range rt.workers[:n] {
		w.ctl <- ctlMsg{proc: procs[i]}
	}
	rt.consumed = false
	return nil
}

// Close terminates the worker goroutines and returns once all of them have
// exited. The runtime cannot be used afterwards; Close is idempotent and must
// not run concurrently with Run. All workers are idle between runs, so the
// shutdown sends cannot block indefinitely.
func (rt *Runtime) Close() {
	if rt.closed {
		return
	}
	rt.closed = true
	for _, w := range rt.workers {
		w.ctl <- ctlMsg{shutdown: true}
	}
	rt.workers = nil
	rt.wg.Wait()
}

// consult serializes adversary access across worker goroutines: the crash
// decision first and — exactly like the deterministic engine — the omission
// decision only when the process survives (a crash truncation subsumes any
// send omission, and a crashed process receives nothing anyway).
func (rt *Runtime) consult(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome, sim.Omission) {
	rt.advMu.Lock()
	defer rt.advMu.Unlock()
	crash, outcome := rt.adv.Crashes(p, r, plan)
	if crash || rt.omit == nil {
		return crash, outcome, sim.Omission{}
	}
	return false, sim.CrashOutcome{}, rt.omit.Omits(p, r, plan)
}

// round executes one round in worker w: send phase, barrier, receive phase.
// Returning (on crash, halt, error or abort) parks the worker in its idle
// loop.
func (rt *Runtime) round(w *worker, r sim.Round) {
	id := w.proc.ID()
	n := len(rt.procs)
	plan := w.proc.Send(r)
	var rep sendReport
	if rt.cfg.Model == sim.ModelClassic && len(plan.Control) > 0 {
		rep.err = fmt.Errorf("%w (process p%d, round %d)", sim.ErrControlInClassic, id, r)
		w.sent <- rep
		return
	}
	if err := w.val.Validate(id, n, plan); err != nil {
		rep.err = fmt.Errorf("%v (round %d)", err, r)
		w.sent <- rep
		return
	}
	// The two-cell mailboxes encode the model's per-round channel
	// discipline; reject plans that would overflow them.
	w.destCnt = resize(w.destCnt, n)
	cnt := w.destCnt
	for _, o := range plan.Data {
		cnt[o.To-1]++
	}
	for _, to := range plan.Control {
		cnt[to-1]++
	}
	for j, c := range cnt {
		if c > 2 {
			rep.err = fmt.Errorf("lockstep: p%d sends %d messages to p%d in round %d (channel capacity 2)",
				id, c, j+1, r)
			w.sent <- rep
			return
		}
	}
	crash, outcome, om := rt.consult(id, r, plan)
	if crash && !outcome.ValidFor(plan) {
		rep.err = fmt.Errorf("%w (process p%d, round %d)", sim.ErrBadOutcome, id, r)
		w.sent <- rep
		return
	}
	if !om.IsZero() && !om.ValidFor(plan) {
		rep.err = fmt.Errorf("%w (process p%d, round %d)", sim.ErrBadOmission, id, r)
		w.sent <- rep
		return
	}
	// Data sending step: the escaped subset goes out in plan order. A
	// crash truncation and a send omission are accounted differently
	// (dropped vs omitted), matching the deterministic engine exactly. The
	// outcome is consulted only for a crashing sender, so a surviving one
	// needs no all-true mask.
	for i, o := range plan.Data {
		if crash && !outcome.DataDelivered[i] {
			rep.ctr.DroppedData++
			continue
		}
		if om.Data != nil && !om.Data[i] {
			rep.ctr.OmittedData++
			continue
		}
		m := sim.Message{From: id, To: o.To, Round: r, Kind: sim.Data, Payload: o.Payload}
		rt.put(m)
		rep.ctr.AddData(m.Bits())
	}
	// Control sending step, immediately after, in the prescribed order;
	// a crash lets exactly a prefix escape, a send omission may suppress
	// any subset (the sender is alive and executes the whole step).
	for i, to := range plan.Control {
		if crash && i >= outcome.CtrlPrefix {
			rep.ctr.DroppedCtrl++
			continue
		}
		if om.Ctrl != nil && !om.Ctrl[i] {
			rep.ctr.OmittedCtrl++
			continue
		}
		rt.put(sim.Message{From: id, To: to, Round: r, Kind: sim.Control})
		rep.ctr.AddCtrl()
	}
	rep.crashed = crash
	rep.omitted = !om.IsZero()
	w.sent <- rep
	if crash {
		return // the crash: this worker is silent for the rest of the run
	}

	// Barrier: true means all round-r messages are now in the mailboxes,
	// false that the driver aborted the run.
	if !<-w.recv {
		return
	}
	w.inbox = rt.drainInto(w.inbox[:0], id)
	inbox := w.inbox
	var rrep recvReport
	if om.Recv != nil {
		// Receive omission: deliveries from masked-out senders vanish
		// before the process sees its inbox.
		w2 := 0
		for _, m := range inbox {
			if i := int(m.From) - 1; i < len(om.Recv) && !om.Recv[i] {
				rrep.ctr.OmittedRecv++
				rrep.led.RecvOmitted(m.Kind == sim.Control)
				continue
			}
			inbox[w2] = m
			w2++
		}
		inbox = inbox[:w2]
	}
	for _, m := range inbox {
		rrep.led.Delivered(m.Kind == sim.Control)
	}
	sim.SortInbox(inbox)
	w.proc.Receive(r, inbox)
	v, dec := w.proc.Decided()
	rrep.decided, rrep.value = dec, v
	rrep.halted = w.proc.Halted()
	w.done <- rrep
}

// put posts m to its mailbox. Only the sender's goroutine writes its column,
// between its start and sent handshakes. The capacity check in round rejects
// a third message to one destination first, so a full mailbox is a bug.
func (rt *Runtime) put(m sim.Message) {
	k := int(m.To-1)*len(rt.procs) + int(m.From-1)
	c := rt.cnt[k]
	if c == 2 {
		panic(fmt.Sprintf("lockstep: mailbox p%d→p%d overflows in round %d", m.From, m.To, m.Round))
	}
	rt.box[2*k+int(c)] = m
	rt.cnt[k] = c + 1
}

// drainInto appends the mail addressed to process id to buf in sender order
// and empties its row. The row belongs to the receiver after its recv
// handshake, and to the driver once every sender has reported.
func (rt *Runtime) drainInto(buf []sim.Message, id sim.ProcID) []sim.Message {
	n := len(rt.procs)
	for k := int(id-1) * n; k < int(id)*n; k++ {
		if c := int(rt.cnt[k]); c > 0 {
			buf = append(buf, rt.box[2*k:2*k+c]...)
			rt.cnt[k] = 0
		}
	}
	return buf
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

// Run executes the system until every alive process halts, the horizon is
// reached, or a model violation occurs. Run may be called once per arming;
// Reset arms the next job.
func (rt *Runtime) Run() (*sim.Result, error) {
	if rt.closed {
		return nil, errors.New("lockstep: runtime is closed")
	}
	if rt.consumed {
		return nil, errors.New("lockstep: Runtime.Run called twice (Reset the runtime between jobs)")
	}
	rt.consumed = true
	n := len(rt.procs)

	res := &sim.Result{}
	rt.alive = resize(rt.alive, n)
	rt.halted = resize(rt.halted, n)
	rt.out = resize(rt.out, n)
	for i := range rt.alive {
		rt.alive[i] = true
	}
	activeCount := func() int {
		c := 0
		for i := range rt.alive {
			if rt.alive[i] && !rt.halted[i] {
				c++
			}
		}
		return c
	}

	recording := rt.cfg.Telemetry.Enabled()
	var prevCtr metrics.Counters
	var prevLed metrics.Ledger
	var r sim.Round
	for r = 1; r <= rt.cfg.Horizon; r++ {
		if recording {
			prevCtr, prevLed = res.Counters, res.Ledger
		}
		ws := rt.started[:0]
		for i, w := range rt.workers[:n] {
			if rt.alive[i] && !rt.halted[i] {
				ws = append(ws, w)
			}
		}
		rt.started = ws
		if len(ws) == 0 {
			r--
			break
		}
		// Send phase (concurrent across workers).
		for _, w := range ws {
			w.start <- r
		}
		// Every worker that neither crashed nor failed now waits at the
		// barrier.
		var firstErr error
		recvs := rt.receivers[:0]
		for _, w := range ws {
			rep := <-w.sent
			res.Counters.Merge(rep.ctr)
			switch {
			case rep.err != nil:
				if firstErr == nil {
					firstErr = rep.err
				}
			case rep.crashed:
				rt.alive[w.idx] = false
				rt.out[w.idx].CrashRound = r
			default:
				recvs = append(recvs, w)
			}
			if rep.omitted {
				rt.out[w.idx].OmissiveRounds++
			}
		}
		rt.receivers = recvs
		// Receive phase (concurrent across the waiting workers), or release
		// them back to their idle loops when the run aborts.
		for _, w := range recvs {
			w.recv <- firstErr == nil
		}
		if firstErr != nil {
			rt.finish(res, r)
			return res, firstErr
		}
		for _, w := range recvs {
			rep := <-w.done
			res.Counters.Merge(rep.ctr)
			res.Ledger.Merge(rep.led)
			if o := &rt.out[w.idx]; rep.decided && o.DecideRound == 0 {
				o.Value, o.DecideRound = rep.value, r
			}
			if rep.halted {
				rt.halted[w.idx] = true
			}
		}
		// Drain the mailboxes of processes that died or halted so the next
		// round's senders find them empty. The drained messages were
		// transmitted but never consumed; the ledger records their fate by
		// destination state (crashed vs halted).
		for i := range rt.alive {
			if !rt.alive[i] || rt.halted[i] {
				rt.drainBuf = rt.drainInto(rt.drainBuf[:0], sim.ProcID(i+1))
				for _, m := range rt.drainBuf {
					if !rt.alive[i] {
						res.Ledger.DeadDest(m.Kind == sim.Control)
					} else {
						res.Ledger.HaltedDest(m.Kind == sim.Control)
					}
				}
			}
		}
		if recording {
			rt.recordRound(res, r, prevCtr, prevLed)
		}
		if activeCount() == 0 {
			break
		}
	}
	if r > rt.cfg.Horizon {
		r = rt.cfg.Horizon
		if activeCount() != 0 {
			rt.finish(res, r)
			return res, sim.ErrNoProgress
		}
	}
	rt.finish(res, r)
	if recording {
		rt.cfg.Telemetry.Span(telemetry.SpanRun, telemetry.TrackEngine, 0, int32(r), 0, float64(r))
		if r > 0 {
			rt.cfg.Telemetry.Sample(telemetry.SeriesRoundsPerSec, float64(r), 1)
		}
	}
	return res, nil
}

// recordRound emits one round's telemetry from the driver loop: the round
// span over its unit time interval and the traffic deltas of the round,
// computed against the result snapshots taken before the send phase. The
// driver owns the result between barriers, so no synchronization is needed.
func (rt *Runtime) recordRound(res *sim.Result, r sim.Round, prevCtr metrics.Counters, prevLed metrics.Ledger) {
	rec := rt.cfg.Telemetry
	t := float64(r)
	rec.Span(telemetry.SpanRound, telemetry.TrackEngine, int32(r), 0, t-1, t)
	dc := res.Counters.Minus(prevCtr)
	dl := res.Ledger.Minus(prevLed)
	rec.Sample(telemetry.SeriesDataMsgs, t, float64(dc.DataMsgs))
	rec.Sample(telemetry.SeriesCtrlMsgs, t, float64(dc.CtrlMsgs))
	rec.Sample(telemetry.SeriesDelivered, t, float64(dl.DeliveredData+dl.DeliveredCtrl))
	rec.Sample(telemetry.SeriesDropped, t, float64(dc.DroppedData+dc.DroppedCtrl))
	rec.Sample(telemetry.SeriesOmitted, t, float64(dc.OmittedData+dc.OmittedCtrl+dc.OmittedRecv))
	rec.Sample(telemetry.SeriesLate, t, float64(dc.Late))
}

// finish stamps the round count on res and hands it a copy of the driver's
// outcome scratch, like sim.Engine.Run.
func (rt *Runtime) finish(res *sim.Result, r sim.Round) {
	res.Rounds = r
	res.Counters.Rounds = int(r)
	res.Procs = slices.Clone(rt.out)
}
