// Package lockstep is a concurrent scheduler for the round kernel: the
// processes of a job run on P = min(n, GOMAXPROCS) goroutines, one two-cell
// mailbox per directed process pair carries their messages, and a driver
// enforces the round structure with one phase barrier.
//
// The round semantics are not transcribed here. Every send and receive phase
// is sim.Kernel's, the one copy the deterministic engine (internal/sim) and
// the timed engine (internal/timed) run too, so the runtime produces the
// same sim.Result from the same sim.Process state machines and
// sim.Adversary. What the package adds is real concurrency:
//
//   - every ordered pair of processes gets a mailbox of two cells, because a
//     channel of the extended model never holds more than one data message
//     and one control message per round (footnote 3 of the paper), which
//     sim.PlanValidator enforces; all mailboxes live in one flat slab, where
//     a sender writes only its own column and a receiver drains only its own
//     row, in place;
//   - each phase of a round runs concurrently on the P shard goroutines,
//     each running the kernel's phase for its contiguous share of the active
//     processes in id order, with a sim.Acc of its own for the phase's sums;
//   - the phase barrier between the send and receive phases is the model's
//     synchrony assumption (a message sent in round r arrives in round r).
//     For each phase the driver publishes a command, the round and the list
//     of processes to run, then wakes each shard on the shard's own wake
//     channel; a shard runs its share of the list and counts its arrival
//     down on one shared atomic, and the last arrival wakes the driver — two
//     wakes per shard and two driver wakes per round. The driver then merges
//     the shards' accumulators into the kernel. The barrier also orders every
//     mailbox access, so the slab needs no lock;
//   - a shard hands each receiver its compacted mailbox row as the kernel
//     inbox of the round, and after the receive phase the driver empties the
//     rows of crashed and halted processes through sim.Kernel.Accept, which
//     books each message by its destination's state.
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
// deterministic engine. The kernel's trace writes are not safe across
// shards, so the runtime records no transcript.
package lockstep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
	k       sim.Kernel
	guard   guard
	horizon sim.Round

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
	size   int            // the process count the slabs hold, grow-only
	active []int          // the phase lists' buffer, sized with the slabs

	consumed, closed bool
}

// shard is one persistent goroutine's state. rt, idx and wake are fixed at
// spawn. acc and err belong to the shard from a wake to its arrival and to
// the driver from the last arrival to the next wake.
type shard struct {
	rt   *Runtime
	idx  int
	wake chan struct{}

	acc sim.Acc // the sums of the shard's share of a phase
	err error   // the first error of the shard's share
}

// loop is the persistent shard goroutine: idle between phases, running its
// share of one phase per wake, in id order up to its first error. Only
// Close, which closes the wake channel, ends the loop.
func (s *shard) loop() {
	defer s.rt.wg.Done()
	for range s.wake {
		rt := s.rt
		m := len(rt.list)
		w := min(rt.p, m)
		for _, i := range rt.list[s.idx*m/w : (s.idx+1)*m/w] {
			if rt.recv {
				rt.k.SetInbox(i, rt.take(i))
				s.err = rt.k.ReceivePhase(&s.acc, i, rt.r)
			} else {
				s.err = rt.k.SendPhase(&s.acc, i, rt.r)
			}
			if s.err != nil {
				break
			}
		}
		rt.arrive()
	}
}

// guard serializes the shards' adversary calls. The kernel consults an
// omitter only when the adversary is one, so the guard of a crash-only
// adversary must not be an Omitter itself: omitGuard is the face of a guard
// whose adversary is.
type guard struct {
	mu   sync.Mutex
	adv  sim.Adversary
	omit sim.Omitter
}

// arm guards adv and returns the face the kernel consults.
func (g *guard) arm(adv sim.Adversary) sim.Adversary {
	g.adv = adv
	g.omit, _ = adv.(sim.Omitter)
	if g.omit != nil {
		return (*omitGuard)(g)
	}
	return g
}

// Crashes implements sim.Adversary.
func (g *guard) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.adv.Crashes(p, r, plan)
}

// omitGuard is a guard whose adversary is an Omitter.
type omitGuard guard

// Crashes implements sim.Adversary.
func (g *omitGuard) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	return (*guard)(g).Crashes(p, r, plan)
}

// Omits implements sim.Omitter.
func (g *omitGuard) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.omit.Omits(p, r, plan)
}

// post is the runtime as the kernel's Transmitter: it posts every
// transmitted message to its mailbox.
type post Runtime

// Transmit implements sim.Transmitter. Only the shard running the sender
// writes its column, during the send phase. The plan validator rejects a
// third message on one channel first, so a full mailbox is a bug.
func (p *post) Transmit(m sim.Message) {
	k := int(m.To-1)*p.k.N() + int(m.From-1)
	c := p.cnt[k]
	if c == 2 {
		panic(fmt.Sprintf("lockstep: mailbox p%d→p%d overflows in round %d", m.From, m.To, m.Round))
	}
	p.box[2*k+int(c)] = m
	p.cnt[k] = c + 1
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
	n := len(procs)
	p := min(n, runtime.GOMAXPROCS(0))
	rt.grow(n, p)
	// An aborted run can leave mail behind; every mailbox starts empty.
	clear(rt.cnt[:n*n])
	rt.horizon, rt.p = h, p
	rt.k.Arm(sim.Config{Model: cfg.Model, Horizon: h, Telemetry: cfg.Telemetry},
		procs, rt.guard.arm(adv), (*post)(rt), nil)
	rt.consumed = false
	return nil
}

// grow sizes the slabs for n processes and spawns shards up to p, each
// only when it exceeds every earlier size. The new shards come from one
// slab.
func (rt *Runtime) grow(n, p int) {
	if n > rt.size {
		rt.size = n
		rt.box = make([]sim.Message, 2*n*n)
		rt.cnt = make([]uint8, n*n)
		rt.active = make([]int, 0, n)
	}
	have := len(rt.shards)
	if p <= have {
		return
	}
	rt.shards = append(make([]*shard, 0, p), rt.shards...)
	spawned := make([]shard, p-have)
	for i := range spawned {
		s := &spawned[i]
		s.rt, s.idx, s.wake = rt, have+i, make(chan struct{}, 1)
		rt.shards = append(rt.shards, s)
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

// phase runs one phase of round r over the processes that are active when
// it starts: it publishes the send (or, with recv, the receive) halves,
// wakes min(p, active) shards, each for its contiguous share, waits for the
// last of them to arrive and merges their accumulators into the kernel. It
// returns the first error in id order.
func (rt *Runtime) phase(recv bool, r sim.Round) error {
	list := rt.active[:0]
	for i := range rt.k.N() {
		if rt.k.Active(i) {
			list = append(list, i)
		}
	}
	if len(list) == 0 {
		return nil
	}
	shards := rt.shards[:min(rt.p, len(list))]
	rt.recv, rt.r, rt.list = recv, r, list
	rt.pending.Store(int32(len(shards)))
	for _, s := range shards {
		s.wake <- struct{}{}
	}
	<-rt.arrived
	var err error
	for _, s := range shards {
		rt.k.Merge(&s.acc)
		if err == nil {
			err = s.err
		}
		s.err = nil
	}
	return err
}

// arrive counts the calling shard's share done; the last arrival wakes the
// driver. A shard touches no shared state after it has arrived until its
// next wake.
func (rt *Runtime) arrive() {
	if rt.pending.Add(-1) == 0 {
		rt.arrived <- struct{}{}
	}
}

// take compacts the mail addressed to process i+1 in place, in sender
// order, to the front of its row, empties every mailbox of the row and
// returns the compacted prefix. The row belongs to the shard running its
// receiver between the barrier and the shard's arrival, and the prefix is
// only valid until the next send phase — the sim.Process.Receive contract.
func (rt *Runtime) take(i int) []sim.Message {
	n := rt.k.N()
	lo := i * n
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

// discard empties the mailboxes of process i+1, which crashed or halted:
// their messages were transmitted but are never received, and the kernel's
// Accept books each by its destination's state.
func (rt *Runtime) discard(i int) {
	n := rt.k.N()
	for k := i * n; k < (i+1)*n; k++ {
		for _, m := range rt.box[2*k : 2*k+int(rt.cnt[k])] {
			rt.k.Accept(m)
		}
		rt.cnt[k] = 0
	}
}

// Run executes the system until every alive process halts, the horizon is
// reached, or a model violation occurs. Run may be called once per arming;
// Reset arms the next job. The result is the runtime's own and valid until
// its next Run or Reset; Clone it to keep it longer.
func (rt *Runtime) Run() (*sim.Result, error) {
	if rt.closed {
		return nil, errors.New("lockstep: runtime is closed")
	}
	if rt.consumed {
		return nil, errors.New("lockstep: Runtime.Run called twice (Reset the runtime between jobs)")
	}
	rt.consumed = true
	k := &rt.k
	var err error
	var r sim.Round
	for r = 1; r <= rt.horizon; r++ {
		// A model violation ends the run after its phase; init empties the
		// mail it leaves behind.
		if err = rt.phase(false, r); err != nil {
			break
		}
		if err = rt.phase(true, r); err != nil {
			break
		}
		for i := range k.N() {
			if !k.Active(i) {
				rt.discard(i)
			}
		}
		// Recording happens in the driver, which owns the kernel between
		// barriers, so it needs no synchronization.
		k.RecordRound(r, float64(r-1), float64(r))
		if k.Quiet() {
			break
		}
	}
	if r > rt.horizon {
		r, err = rt.horizon, sim.ErrNoProgress
	}
	return k.Finish(r, float64(r), err == nil), err
}
