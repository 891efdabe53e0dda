// Package lockstep is a concurrent runtime for the synchronous models:
// processes run concurrently on P = min(n, GOMAXPROCS) goroutines, one
// two-cell mailbox per directed process pair carries their messages, and a
// driver enforces the round structure with one phase barrier.
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
//   - the send phase of a round runs concurrently on the P shard goroutines,
//     each running the send halves of its share of the live processes in id
//     order; a crashing process performs the escaped prefix of its sends and
//     is never run again, exactly like a crash mid-send-phase;
//   - the phase barrier between the send and receive phases is the model's
//     synchrony assumption (a message sent in round r arrives in round r).
//     For each phase the driver publishes a command, the round and the list
//     of processes to run, then wakes each shard on the shard's own wake
//     channel; a shard runs its contiguous share of the list and counts its
//     arrival down on one shared atomic, and the last arrival wakes the
//     driver — two wakes per shard and two driver wakes per round. The
//     barrier also orders every mailbox access, so the slab needs no lock.
//
// Shard goroutines and the slabs are persistent and grow-only: a Runtime
// built by New survives its Run, and Reset rearms it — new processes,
// adversary and configuration — spawning shards and reallocating the slabs
// only when the process count or P exceeds every earlier one. That is what
// makes the runtime Reusable to the sweep harness: a worker executing a
// thousand lockstep jobs of any size mix pays for one goroutine set. Call
// Close to terminate the goroutines when the runtime is retired.
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
	"runtime"
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
	// arrival of a round's receive phase and before it wakes any shard for
	// the next one, so the recorder needs no locking even though the shards
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

	// The phase barrier. The driver writes recv, r and list, stores the
	// number of shards it wakes in pending, then wakes them; every woken
	// shard decrements pending when its share of list is done, and the one
	// that takes it to zero signals arrived. Shards read recv, r and list
	// only after a wake, and the driver writes them only after the last
	// arrival.
	recv    bool // the phase runs the receive halves, not the send halves
	r       sim.Round
	list    []int // indices (id-1) of the processes the phase runs
	pending atomic.Int32
	arrived chan struct{} // capacity 1

	shards []*shard       // grow-only; shards[:p] run the current job
	p      int            // min(n, GOMAXPROCS) at arming
	wg     sync.WaitGroup // one count per spawned shard goroutine
	ps     []procState    // grow-only; indexed by process (id-1)

	consumed, closed bool

	// Driver-side scratch, sized with ps. Indexed by process (id-1).
	alive, halted []bool
	out           []sim.Outcome // per-process outcome so far; finish hands out a copy
	active, recvs []int         // the send and the receive phase's lists
}

// sendReport is the account of one process's send phase.
type sendReport struct {
	crashed bool
	omitted bool // the adversary injected an omission fault this round
	err     error
	ctr     metrics.Counters
}

// recvReport is the account of one process's receive phase.
type recvReport struct {
	decided bool
	value   sim.Value
	halted  bool
	ctr     metrics.Counters // receive-omission accounting
	led     metrics.Ledger   // delivery-ledger slice of this receive phase
}

// procState is what one process carries through a round. The shard running
// the process writes it before arriving, and the driver reads the reports
// after the last arrival.
type procState struct {
	sent sendReport
	done recvReport
	om   sim.Omission // this round's omission, from the send to the receive half
}

// shard is one persistent goroutine's state. rt, idx and wake are fixed at
// spawn; the driver carves cnt while every shard is idle, and the next wake
// publishes it.
type shard struct {
	rt   *Runtime
	idx  int
	wake chan struct{}

	cnt []uint8           // per-destination send counts, all zero between plans
	val sim.PlanValidator // shards validate concurrently: one each
}

// loop is the persistent shard goroutine: idle between phases, running its
// share of one phase per wake. Only Close, which closes the wake channel,
// ends the loop.
func (s *shard) loop() {
	defer s.rt.wg.Done()
	for range s.wake {
		rt := s.rt
		m := len(rt.list)
		k := min(rt.p, m)
		for _, i := range rt.list[s.idx*m/k : (s.idx+1)*m/k] {
			if rt.recv {
				s.receive(i, rt.r)
			} else {
				s.send(i, rt.r)
			}
		}
		rt.arrive()
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

// Reset rearms the runtime for a new job, reusing the shard goroutines and
// the slabs (they grow only when the process count or P exceeds every
// earlier one). On error the runtime keeps its previous (consumed) arming.
// Reset must not be called concurrently with Run.
func (rt *Runtime) Reset(cfg Config, procs []sim.Process, adv sim.Adversary) error {
	return rt.init(cfg, procs, adv)
}

// init validates and installs a job; shared by New and Reset. Validation
// happens before any mutation so a failed Reset leaves the runtime intact.
// Every shard is idle here, so the writes need no handshake: the wake of
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
	p := min(n, runtime.GOMAXPROCS(0))
	if n > len(rt.ps) || p > len(rt.shards) {
		rt.grow(max(n, len(rt.ps)), max(p, len(rt.shards)))
	}
	// An aborted run can leave mail behind; every mailbox starts empty.
	clear(rt.cnt[:n*n])
	rt.cfg, rt.procs, rt.adv, rt.p = cfg, procs, adv, p
	rt.omit, _ = adv.(sim.Omitter)
	rt.consumed = false
	return nil
}

// grow sizes every slab for n processes and spawns shards up to p. The new
// shards come from one slab, the mailbox counts and every shard's send-count
// row from one uint8 slab, and the driver's scratch is sized here so a run
// never appends past it.
func (rt *Runtime) grow(n, p int) {
	if n > len(rt.ps) {
		rt.box = make([]sim.Message, 2*n*n)
		rt.ps = make([]procState, n)
		idx := make([]int, 2*n)
		rt.active, rt.recvs = idx[:0:n], idx[n:n]
		flags := make([]bool, 2*n)
		rt.alive, rt.halted = flags[:n:n], flags[n:]
		rt.out = make([]sim.Outcome, n)
	}
	u8 := make([]uint8, (n+p)*n)
	rt.cnt = u8[:n*n]
	have := len(rt.shards)
	rt.shards = append(make([]*shard, 0, p), rt.shards...)
	spawned := make([]shard, p-have)
	for i := range spawned {
		s := &spawned[i]
		s.rt, s.idx, s.wake = rt, have+i, make(chan struct{}, 1)
		rt.shards = append(rt.shards, s)
	}
	for i, s := range rt.shards {
		s.cnt = u8[(n+i)*n : (n+i+1)*n]
	}
	for _, s := range rt.shards[have:] {
		rt.wg.Add(1)
		go s.loop()
	}
}

// Close terminates the shard goroutines and returns once all of them have
// exited. The runtime cannot be used afterwards; Close is idempotent and must
// not run concurrently with Run. Every shard is idle between runs, so
// closing its wake channel ends its loop.
func (rt *Runtime) Close() {
	if rt.closed {
		return
	}
	rt.closed = true
	for _, s := range rt.shards {
		close(s.wake)
	}
	rt.shards = nil
	rt.wg.Wait()
}

// phase runs one phase of the barrier: it publishes the send (or, with
// recv, the receive) halves of round r over the processes of list, wakes
// min(p, len(list)) shards, each for its contiguous share of list, and
// returns after the last of them has arrived.
func (rt *Runtime) phase(recv bool, r sim.Round, list []int) {
	if len(list) == 0 {
		return
	}
	shards := rt.shards[:min(rt.p, len(list))]
	rt.recv, rt.r, rt.list = recv, r, list
	rt.pending.Store(int32(len(shards)))
	for _, s := range shards {
		s.wake <- struct{}{}
	}
	<-rt.arrived
}

// arrive counts the calling shard's share done; the last arrival wakes the
// driver. A shard touches no shared state after it has arrived until its
// next wake.
func (rt *Runtime) arrive() {
	if rt.pending.Add(-1) == 0 {
		rt.arrived <- struct{}{}
	}
}

// consult serializes adversary access across shard goroutines: the crash
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

// send runs the send half of round r for process i+1 and reports it in
// rt.ps[i]; the process's omission of the round waits there for its receive
// half. A process that crashed or failed is not run again.
func (s *shard) send(i int, r sim.Round) {
	rt := s.rt
	st := &rt.ps[i]
	proc := rt.procs[i]
	id := proc.ID()
	plan := proc.Send(r)
	rep := &st.sent
	*rep, st.om = sendReport{}, sim.Omission{}
	if rt.cfg.Model == sim.ModelClassic && len(plan.Control) > 0 {
		rep.err = fmt.Errorf("%w (process p%d, round %d)", sim.ErrControlInClassic, id, r)
		return
	}
	if err := s.val.Validate(id, len(rt.procs), plan); err != nil {
		rep.err = fmt.Errorf("%v (round %d)", err, r)
		return
	}
	// The two-cell mailboxes encode the model's per-round channel
	// discipline; reject plans that would overflow them.
	if to, c := s.overflow(plan); c > 0 {
		rep.err = fmt.Errorf("lockstep: p%d sends %d messages to p%d in round %d (channel capacity 2)",
			id, c, to, r)
		return
	}
	crash, outcome, om := rt.consult(id, r, plan)
	if crash && !outcome.ValidFor(plan) {
		rep.err = fmt.Errorf("%w (process p%d, round %d)", sim.ErrBadOutcome, id, r)
		return
	}
	if !om.IsZero() && !om.ValidFor(plan) {
		rep.err = fmt.Errorf("%w (process p%d, round %d)", sim.ErrBadOmission, id, r)
		return
	}
	// Data sending step: the escaped subset goes out in plan order. A
	// crash truncation and a send omission are accounted differently
	// (dropped vs omitted), matching the deterministic engine exactly. The
	// outcome is consulted only for a crashing sender, so a surviving one
	// needs no all-true mask.
	for j, o := range plan.Data {
		if crash && !outcome.DataDelivered[j] {
			rep.ctr.DroppedData++
			continue
		}
		if om.Data != nil && !om.Data[j] {
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
	for j, to := range plan.Control {
		if crash && j >= outcome.CtrlPrefix {
			rep.ctr.DroppedCtrl++
			continue
		}
		if om.Ctrl != nil && !om.Ctrl[j] {
			rep.ctr.OmittedCtrl++
			continue
		}
		rt.put(sim.Message{From: id, To: to, Round: r, Kind: sim.Control})
		rep.ctr.AddCtrl()
	}
	rep.crashed = crash
	rep.omitted = !om.IsZero()
	st.om = om
}

// overflow counts a validated plan's messages per destination on the
// shard's row and returns the lowest destination that would get more than
// its mailbox holds, with its count, or a zero count. It touches only the
// plan's own destinations and leaves them zero again. The counts saturate,
// so no plan can wrap one back under the capacity.
func (s *shard) overflow(plan sim.SendPlan) (to sim.ProcID, c uint8) {
	cnt := s.cnt
	bump := func(d sim.ProcID) { cnt[d-1] = min(cnt[d-1], math.MaxUint8-1) + 1 }
	// A destination's first drain reads its full count and zeroes it.
	drain := func(d sim.ProcID) {
		if k := cnt[d-1]; k > 2 && (c == 0 || d < to) {
			to, c = d, k
		}
		cnt[d-1] = 0
	}
	for _, o := range plan.Data {
		bump(o.To)
	}
	for _, d := range plan.Control {
		bump(d)
	}
	for _, o := range plan.Data {
		drain(o.To)
	}
	for _, d := range plan.Control {
		drain(d)
	}
	return to, c
}

// receive runs the receive half of round r for process i+1 under the
// omission its send half left in rt.ps[i], and reports it there.
func (s *shard) receive(i int, r sim.Round) {
	st := &s.rt.ps[i]
	proc := s.rt.procs[i]
	inbox := s.rt.take(proc.ID())
	rep := &st.done
	*rep = recvReport{}
	if recv := st.om.Recv; recv != nil {
		// Receive omission: deliveries from masked-out senders vanish
		// before the process sees its inbox.
		w := 0
		for _, m := range inbox {
			if j := int(m.From) - 1; j < len(recv) && !recv[j] {
				rep.ctr.OmittedRecv++
				rep.led.RecvOmitted(m.Kind == sim.Control)
				continue
			}
			inbox[w] = m
			w++
		}
		inbox = inbox[:w]
	}
	for _, m := range inbox {
		rep.led.Delivered(m.Kind == sim.Control)
	}
	sim.SortInbox(inbox)
	proc.Receive(r, inbox)
	rep.value, rep.decided = proc.Decided()
	rep.halted = proc.Halted()
}

// put posts m to its mailbox. Only the shard running the sender writes its
// column, during the send phase. The capacity check in send rejects a third message
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
// the shard running its receiver between the barrier and the shard's
// arrival, and the prefix is only
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

	// Every round starts with a live process: the loop ends after the first
	// round that leaves none.
	var tel sim.RoundTelemetry
	var r sim.Round
	for r = 1; r <= rt.cfg.Horizon; r++ {
		active := rt.active[:0]
		for i := range alive {
			if alive[i] && !halted[i] {
				active = append(active, i)
			}
		}
		// Send phase (concurrent across shards).
		rt.phase(false, r, active)
		var firstErr error
		recvs := rt.recvs[:0]
		for _, i := range active {
			rep := &rt.ps[i].sent
			res.Counters.Merge(rep.ctr)
			switch {
			case rep.err != nil:
				if firstErr == nil {
					firstErr = rep.err
				}
			case rep.crashed:
				alive[i] = false
				out[i].CrashRound = r
			default:
				recvs = append(recvs, i)
			}
			if rep.omitted {
				out[i].OmissiveRounds++
			}
		}
		// A model violation ends the run here; the survivors' receive halves
		// simply never run, and init empties the mail they leave behind.
		if firstErr != nil {
			rt.finish(res, r)
			return res, firstErr
		}
		// Receive phase (concurrent across shards).
		rt.phase(true, r, recvs)
		live := len(recvs)
		for _, i := range recvs {
			rep := &rt.ps[i].done
			res.Counters.Merge(rep.ctr)
			res.Ledger.Merge(rep.led)
			if o := &out[i]; rep.decided && o.DecideRound == 0 {
				o.Value, o.DecideRound = rep.value, r
			}
			if rep.halted {
				halted[i] = true
				live--
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
		if live == 0 {
			break
		}
	}
	if r > rt.cfg.Horizon {
		rt.finish(res, rt.cfg.Horizon)
		return res, sim.ErrNoProgress
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
