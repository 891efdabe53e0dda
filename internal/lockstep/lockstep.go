// Package lockstep is a concurrent runtime for the synchronous models: one
// goroutine per process, one two-cell mailbox per directed process pair, and
// a driver that enforces the round structure with one phase barrier.
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
//     column and a receiver drains only its own row, in place;
//   - the send phase of a round runs concurrently in all process goroutines;
//     a crashing process performs the escaped prefix of its sends and then
//     its goroutine goes silent for the rest of the run, exactly like a crash
//     mid-send-phase;
//   - the phase barrier between the send and receive phases is the model's
//     synchrony assumption (a message sent in round r arrives in round r).
//     The driver publishes a command and the round, then wakes each live
//     worker on the worker's own wake channel; each worker counts its
//     arrival down on one shared atomic when its phase is done, and the last
//     arrival wakes the driver — one driver wake per phase. A worker that
//     survives its send phase parks at the barrier until the driver wakes it
//     again to receive, or to abort the run. The barrier also orders every
//     mailbox access, so the slab needs no lock.
//
// Worker goroutines and the slabs are persistent and grow-only: a Runtime
// built by New survives its Run, and Reset rearms it — new processes,
// adversary and configuration — spawning workers and reallocating the slabs
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
	"math"
	"slices"
	"sync"
	"sync/atomic"

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
	// series. Recording happens entirely in the driver, after the last
	// arrival of a round's receive phase and before it wakes any worker for
	// the next one, so the recorder needs no locking even though the workers
	// run concurrently. The nil path costs nothing.
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

	// The phase barrier. The driver writes cmd and r, stores the number of
	// workers it wakes in pending, then wakes them; every woken worker
	// decrements pending when its phase is done, and the one that takes it
	// to zero signals arrived. Workers read cmd and r only after a wake, and
	// the driver writes them only after the last arrival.
	cmd     command
	r       sim.Round
	pending atomic.Int32
	arrived chan struct{} // capacity 1

	workers []*worker      // grow-only; workers[:n] run the current job
	wg      sync.WaitGroup // one count per spawned worker goroutine

	consumed bool
	closed   bool

	// Driver-side scratch, sized when workers are spawned. Indexed by
	// process (id-1).
	alive     []bool
	halted    []bool
	out       []sim.Outcome // per-process outcome so far; finish hands out a copy
	started   []*worker
	receivers []*worker
}

// command is what a wake asks of a worker: the send phase of round r from
// its idle loop, or, at the barrier, the receive phase or the end of the run.
type command uint8

const (
	cmdSend command = iota
	cmdRecv
	cmdAbort
)

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

// worker is the per-process goroutine state. rt, idx and wake are fixed at
// spawn. The driver installs proc and carves destCnt while every worker is
// idle; the next wake publishes them. A worker writes its reports before it
// arrives, and the driver reads them after the last arrival.
type worker struct {
	rt   *Runtime
	idx  int // process index: the worker runs p_{idx+1}
	wake chan struct{}

	proc sim.Process
	sent sendReport
	done recvReport

	destCnt []uint8           // per-destination send count scratch
	val     sim.PlanValidator // workers validate concurrently: one each
}

// loop is the persistent worker goroutine: idle between rounds, executing
// one round per wake. A crash, halt, protocol error or run abort returns the
// worker to idle — never exits the goroutine — so the driver simply stops
// waking it; only Close, which closes the wake channel, ends the loop.
func (w *worker) loop() {
	defer w.rt.wg.Done()
	for range w.wake {
		w.round()
	}
}

// New builds a runtime over the given processes (ids 1..n in order) and arms
// it for one Run.
func New(cfg Config, procs []sim.Process, adv sim.Adversary) (*Runtime, error) {
	rt := &Runtime{arrived: make(chan struct{}, 1)}
	if err := rt.init(cfg, procs, adv); err != nil {
		return nil, err
	}
	return rt, nil
}

// Reset rearms the runtime for a new job, reusing the worker goroutines and
// the slabs (they grow only when the process count exceeds every earlier
// one). On error the runtime keeps its previous (consumed) arming. Reset
// must not be called concurrently with Run.
func (rt *Runtime) Reset(cfg Config, procs []sim.Process, adv sim.Adversary) error {
	return rt.init(cfg, procs, adv)
}

// init validates and installs a job; shared by New and Reset. Validation
// happens before any mutation so a failed Reset leaves the runtime intact.
// Every worker is idle here, so the writes need no handshake: the wake of
// the first send phase publishes them.
func (rt *Runtime) init(cfg Config, procs []sim.Process, adv sim.Adversary) error {
	if rt.closed {
		return errors.New("lockstep: runtime is closed")
	}
	h, err := sim.ValidateJob("lockstep", cfg.Horizon, procs, adv)
	if err != nil {
		return err
	}
	cfg.Horizon = h
	n := len(procs)
	if n > len(rt.workers) {
		rt.grow(n)
	}
	// An aborted run can leave mail behind; every mailbox starts empty.
	clear(rt.cnt[:n*n])
	for i, w := range rt.workers[:n] {
		w.proc = procs[i]
	}
	rt.cfg, rt.procs, rt.adv = cfg, procs, adv
	rt.omit, _ = adv.(sim.Omitter)
	rt.consumed = false
	return nil
}

// grow spawns workers up to n and resizes every slab for n processes. The
// new workers come from one slab, the mailbox counts and every worker's
// send-count row from one uint8 slab, and the driver's scratch is sized
// here so a run never appends past it.
func (rt *Runtime) grow(n int) {
	u8 := make([]uint8, 2*n*n)
	rt.cnt = u8[:n*n]
	rt.box = make([]sim.Message, 2*n*n)
	ptrs := make([]*worker, 3*n)
	have := copy(ptrs, rt.workers)
	rt.workers = ptrs[:have:n]
	rt.started = ptrs[n : n : 2*n]
	rt.receivers = ptrs[2*n : 2*n : 3*n]
	spawned := make([]worker, n-have)
	for i := range spawned {
		w := &spawned[i]
		w.rt, w.idx, w.wake = rt, have+i, make(chan struct{}, 1)
		rt.workers = append(rt.workers, w)
	}
	for i, w := range rt.workers {
		w.destCnt = u8[(n+i)*n : (n+i+1)*n]
	}
	for _, w := range rt.workers[have:] {
		rt.wg.Add(1)
		go w.loop()
	}
	flags := make([]bool, 2*n)
	rt.alive, rt.halted = flags[:n:n], flags[n:]
	rt.out = make([]sim.Outcome, n)
}

// Close terminates the worker goroutines and returns once all of them have
// exited. The runtime cannot be used afterwards; Close is idempotent and must
// not run concurrently with Run. Every worker is idle between runs, so
// closing its wake channel ends its loop.
func (rt *Runtime) Close() {
	if rt.closed {
		return
	}
	rt.closed = true
	for _, w := range rt.workers {
		close(w.wake)
	}
	rt.workers = nil
	rt.wg.Wait()
}

// phase runs one phase of the barrier: it publishes cmd for round r, wakes
// every worker of ws and returns after the last of them has arrived.
func (rt *Runtime) phase(cmd command, r sim.Round, ws []*worker) {
	if len(ws) == 0 {
		return
	}
	rt.cmd, rt.r = cmd, r
	rt.pending.Store(int32(len(ws)))
	for _, w := range ws {
		w.wake <- struct{}{}
	}
	<-rt.arrived
}

// arrive counts the calling worker's phase done; the last arrival wakes the
// driver. A worker touches no shared state after it has arrived until its
// next wake.
func (rt *Runtime) arrive() {
	if rt.pending.Add(-1) == 0 {
		rt.arrived <- struct{}{}
	}
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
// Every woken phase ends in exactly one arrival. Returning (on crash, halt,
// error or abort) parks the worker in its idle loop.
func (w *worker) round() {
	rt := w.rt
	r := rt.r
	om, survived := w.send(r)
	rt.arrive()
	if !survived {
		return // a crash silences the worker for the rest of the run
	}
	// The barrier: the next wake means every round-r message is in the
	// mailboxes, or that the driver aborted the run.
	<-w.wake
	if rt.cmd != cmdAbort {
		w.receive(r, om)
	}
	rt.arrive()
}

// send runs w's send phase of round r and reports it in w.sent. It returns
// the process's omission of this round and whether the process is still
// running (neither crashed nor failed) and so waits at the barrier.
func (w *worker) send(r sim.Round) (sim.Omission, bool) {
	rt := w.rt
	id := w.proc.ID()
	n := len(rt.procs)
	plan := w.proc.Send(r)
	rep := &w.sent
	*rep = sendReport{}
	if rt.cfg.Model == sim.ModelClassic && len(plan.Control) > 0 {
		rep.err = fmt.Errorf("%w (process p%d, round %d)", sim.ErrControlInClassic, id, r)
		return sim.Omission{}, false
	}
	if err := w.val.Validate(id, n, plan); err != nil {
		rep.err = fmt.Errorf("%v (round %d)", err, r)
		return sim.Omission{}, false
	}
	// The two-cell mailboxes encode the model's per-round channel
	// discipline; reject plans that would overflow them. The counts
	// saturate, so no plan can wrap one back under the capacity.
	cnt := w.destCnt[:n]
	clear(cnt)
	for _, o := range plan.Data {
		if c := cnt[o.To-1]; c < math.MaxUint8 {
			cnt[o.To-1] = c + 1
		}
	}
	for _, to := range plan.Control {
		if c := cnt[to-1]; c < math.MaxUint8 {
			cnt[to-1] = c + 1
		}
	}
	for j, c := range cnt {
		if c > 2 {
			rep.err = fmt.Errorf("lockstep: p%d sends %d messages to p%d in round %d (channel capacity 2)",
				id, c, j+1, r)
			return sim.Omission{}, false
		}
	}
	crash, outcome, om := rt.consult(id, r, plan)
	if crash && !outcome.ValidFor(plan) {
		rep.err = fmt.Errorf("%w (process p%d, round %d)", sim.ErrBadOutcome, id, r)
		return sim.Omission{}, false
	}
	if !om.IsZero() && !om.ValidFor(plan) {
		rep.err = fmt.Errorf("%w (process p%d, round %d)", sim.ErrBadOmission, id, r)
		return sim.Omission{}, false
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
	return om, !crash
}

// receive runs w's receive phase of round r under the process's omission
// om of that round and reports it in w.done.
func (w *worker) receive(r sim.Round, om sim.Omission) {
	inbox := w.rt.take(w.proc.ID())
	rep := &w.done
	*rep = recvReport{}
	if om.Recv != nil {
		// Receive omission: deliveries from masked-out senders vanish
		// before the process sees its inbox.
		w2 := 0
		for _, m := range inbox {
			if i := int(m.From) - 1; i < len(om.Recv) && !om.Recv[i] {
				rep.ctr.OmittedRecv++
				rep.led.RecvOmitted(m.Kind == sim.Control)
				continue
			}
			inbox[w2] = m
			w2++
		}
		inbox = inbox[:w2]
	}
	for _, m := range inbox {
		rep.led.Delivered(m.Kind == sim.Control)
	}
	sim.SortInbox(inbox)
	w.proc.Receive(r, inbox)
	rep.value, rep.decided = w.proc.Decided()
	rep.halted = w.proc.Halted()
}

// put posts m to its mailbox. Only the sender's goroutine writes its column,
// during its send phase. The capacity check in round rejects a third message
// to one destination first, so a full mailbox is a bug.
func (rt *Runtime) put(m sim.Message) {
	k := int(m.To-1)*len(rt.procs) + int(m.From-1)
	c := rt.cnt[k]
	if c == 2 {
		panic(fmt.Sprintf("lockstep: mailbox p%d→p%d overflows in round %d", m.From, m.To, m.Round))
	}
	rt.box[2*k+int(c)] = m
	rt.cnt[k] = c + 1
}

// take drains the mail addressed to process id in place: it compacts the
// row's messages, in sender order, to the front of the row, empties every
// mailbox of the row and returns the compacted prefix. The row belongs to
// its receiver between the barrier and its arrival, and the prefix is only
// valid until the next send phase — the sim.Process.Receive contract.
func (rt *Runtime) take(id sim.ProcID) []sim.Message {
	n := len(rt.procs)
	lo := int(id-1) * n
	row := rt.box[2*lo : 2*(lo+n)]
	m := 0
	for k := lo; k < lo+n; k++ {
		if c := int(rt.cnt[k]); c > 0 {
			m += copy(row[m:], rt.box[2*k:2*k+c])
			rt.cnt[k] = 0
		}
	}
	return row[:m:m]
}

// discard empties the mailboxes of process i+1, which died or halted, so the
// next round's senders find them empty. Their messages were transmitted but
// never consumed; the ledger records their fate by destination state.
func (rt *Runtime) discard(led *metrics.Ledger, i int) {
	n := len(rt.procs)
	dead := !rt.alive[i]
	for k := i * n; k < (i+1)*n; k++ {
		c := int(rt.cnt[k])
		if c == 0 {
			continue
		}
		for _, m := range rt.box[2*k : 2*k+c] {
			if dead {
				led.DeadDest(m.Kind == sim.Control)
			} else {
				led.HaltedDest(m.Kind == sim.Control)
			}
		}
		rt.cnt[k] = 0
	}
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
	alive, halted, out := rt.alive[:n], rt.halted[:n], rt.out[:n]
	clear(halted)
	clear(out)
	for i := range alive {
		alive[i] = true
	}
	activeCount := func() int {
		c := 0
		for i := range alive {
			if alive[i] && !halted[i] {
				c++
			}
		}
		return c
	}

	var tel sim.RoundTelemetry
	var r sim.Round
	for r = 1; r <= rt.cfg.Horizon; r++ {
		ws := rt.started[:0]
		for i, w := range rt.workers[:n] {
			if alive[i] && !halted[i] {
				ws = append(ws, w)
			}
		}
		if len(ws) == 0 {
			r--
			break
		}
		// Send phase (concurrent across workers). Every worker that neither
		// crashed nor failed now waits at the barrier.
		rt.phase(cmdSend, r, ws)
		var firstErr error
		recvs := rt.receivers[:0]
		for _, w := range ws {
			rep := &w.sent
			res.Counters.Merge(rep.ctr)
			switch {
			case rep.err != nil:
				if firstErr == nil {
					firstErr = rep.err
				}
			case rep.crashed:
				alive[w.idx] = false
				out[w.idx].CrashRound = r
			default:
				recvs = append(recvs, w)
			}
			if rep.omitted {
				out[w.idx].OmissiveRounds++
			}
		}
		// Receive phase (concurrent across the waiting workers), or release
		// them back to their idle loops when the run aborts.
		if firstErr != nil {
			rt.phase(cmdAbort, r, recvs)
			rt.finish(res, r)
			return res, firstErr
		}
		rt.phase(cmdRecv, r, recvs)
		for _, w := range recvs {
			rep := &w.done
			res.Counters.Merge(rep.ctr)
			res.Ledger.Merge(rep.led)
			if o := &out[w.idx]; rep.decided && o.DecideRound == 0 {
				o.Value, o.DecideRound = rep.value, r
			}
			if rep.halted {
				halted[w.idx] = true
			}
		}
		for i := range alive {
			if !alive[i] || halted[i] {
				rt.discard(&res.Ledger, i)
			}
		}
		// Recording happens in the driver, which owns the result between
		// barriers, so it needs no synchronization.
		tel.Record(rt.cfg.Telemetry, r, float64(r-1), float64(r), res.Counters, res.Ledger)
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
	sim.RecordRun(rt.cfg.Telemetry, r, float64(r))
	return res, nil
}

// finish stamps the round count on res and hands it a copy of the driver's
// outcome scratch, like sim.Engine.Run.
func (rt *Runtime) finish(res *sim.Result, r sim.Round) {
	res.Rounds = r
	res.Counters.Rounds = int(r)
	res.Procs = slices.Clone(rt.out[:len(rt.procs)])
}
