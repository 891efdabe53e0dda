// Package lockstep is a concurrent scheduler for the round kernel: the
// processes of a job run on P = min(n, GOMAXPROCS) goroutines, and a driver
// enforces the round structure with one phase barrier and routes each
// round's mail between the phases.
//
// The round semantics are not transcribed here. Every send and receive phase
// is sim.Kernel's, the one copy the deterministic engine (internal/sim) and
// the timed engine (internal/timed) run too, so the runtime produces the
// same sim.Result from the same sim.Process state machines and
// sim.Adversary. What the package adds is real concurrency:
//
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
//     access to the mail, so none of it needs a lock;
//   - a shard appends every message its senders transmit to an outbox of
//     its own; after the send barrier the driver routes the outboxes in one
//     pass: mail to a crashed or halted process goes to sim.Kernel.Accept,
//     which books it by the destination's state, and the rest is
//     counting-sorted by destination into one slab, from which the shards
//     hand each receiver its range as its kernel inbox.
//
// Memory and per-round work are linear in n plus the round's messages. The
// channel capacity of footnote 3 of the paper — one data and one control
// message per channel and round — is sim.PlanValidator's to enforce.
//
// Shard goroutines and the slabs are persistent and grow-only: a Runtime
// built by New survives its Run, and Reset rearms it — new processes,
// adversary and configuration — spawning shards and reallocating the slabs
// only when the process count or P exceeds every earlier one, or a round's
// mail outgrows them. That is what makes the runtime Reusable to the sweep
// harness: a worker executing a thousand lockstep jobs of any size mix pays
// for one goroutine set. Call Close to terminate the goroutines when the
// runtime is retired.
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

	// The round's mail. In the send phase owner[i] is the index of the
	// shard running p_{i+1}, whose outbox takes that sender's messages. The
	// routing pass sorts them by destination into mail, where p_{i+1}'s
	// messages are mail[off[i]:off[i+1]].
	mail  []sim.Message
	owner []int32
	off   []int32

	// The phase barrier. The driver writes recv, r and list, stores the
	// number of shards it wakes in pending, then wakes them; every woken
	// shard decrements pending when its share of list is done, and the one
	// that takes it to zero signals arrived. Shards read recv, r and list
	// only after a wake, and the driver writes them only after the last
	// arrival.
	recv    bool // the phase runs the receive halves, not the send halves
	r       sim.Round
	list    []int32 // indices (id-1) of the processes the phase runs
	pending atomic.Int32
	arrived chan struct{} // capacity 1

	shards []*shard       // grow-only; shards[:p] run the current job
	p      int            // min(n, GOMAXPROCS) at arming
	wg     sync.WaitGroup // one count per spawned shard goroutine
	size   int            // the process count the slabs hold, grow-only
	active []int32        // the phase lists' buffer, sized with the slabs

	consumed, closed bool
}

// shard is one persistent goroutine's state. rt, idx and wake are fixed at
// spawn. acc, err and out belong to the shard from a wake to its arrival and
// to the driver from the last arrival to the next wake.
type shard struct {
	rt   *Runtime
	idx  int
	wake chan struct{}

	acc sim.Acc       // the sums of the shard's share of a phase
	err error         // the first error of the shard's share
	out []sim.Message // the mail its senders transmitted this round
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
				rt.k.SetInbox(int(i), rt.mail[rt.off[i]:rt.off[i+1]:rt.off[i+1]])
				s.err = rt.k.ReceivePhase(&s.acc, int(i), rt.r)
			} else {
				rt.owner[i] = int32(s.idx)
				s.err = rt.k.SendPhase(&s.acc, int(i), rt.r)
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
// transmitted message to the outbox of the shard running its sender.
type post Runtime

// Transmit implements sim.Transmitter. It runs on the shard that owns the
// sender, during the send phase, so the outbox it appends to is its own.
func (p *post) Transmit(m sim.Message) {
	s := p.shards[p.owner[m.From-1]]
	s.out = append(s.out, m)
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
	// An aborted run can leave mail behind; every outbox starts empty.
	for _, s := range rt.shards {
		s.out = s.out[:0]
	}
	rt.horizon, rt.p = h, p
	rt.k.Arm(sim.Config{Model: cfg.Model, Horizon: h, Telemetry: cfg.Telemetry},
		procs, rt.guard.arm(adv), (*post)(rt), nil)
	rt.consumed = false
	return nil
}

// grow sizes the slabs for n processes and spawns shards up to p, each
// only when it exceeds every earlier size. The new shards come from one
// slab, owner, off and the phase list from another, and the mail slab and
// the outboxes from a third: 2n messages for the slab and 2n shared by the
// outboxes, one coordinator's data and commits. A round with more mail
// grows the slab or an outbox for good.
func (rt *Runtime) grow(n, p int) {
	have := len(rt.shards)
	if n <= rt.size && p <= have {
		return
	}
	if n > rt.size {
		rt.size = n
		ints := make([]int32, 3*n+2)
		rt.owner, rt.off, rt.active = ints[:n], ints[n:2*n+2], ints[2*n+2:2*n+2]
	}
	if p > have {
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
	slab, per := 2*rt.size, (2*rt.size+len(rt.shards)-1)/len(rt.shards)
	msgs := make([]sim.Message, slab+per*len(rt.shards))
	rt.mail = msgs[:slab:slab]
	for i, s := range rt.shards {
		lo := slab + i*per
		s.out = msgs[lo : lo : lo+per]
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
			list = append(list, int32(i))
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

// route empties the outboxes after the send barrier of a round. A message
// to a process that crashed or halted is never received: the kernel's
// Accept books it by the destination's state. The rest is counting-sorted
// by destination into the mail slab, in outbox order (senders ascending),
// where each receiver's range belongs to the shard running it until the
// next send phase, the sim.Process.Receive contract.
func (rt *Runtime) route() {
	k := &rt.k
	off := rt.off[:k.N()+2]
	clear(off)
	for _, s := range rt.shards[:rt.p] {
		for _, m := range s.out {
			if k.Active(int(m.To - 1)) {
				off[m.To+1]++
			} else {
				k.Accept(m)
			}
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	if total := int(off[len(off)-1]); total > len(rt.mail) {
		rt.mail = make([]sim.Message, total)
	}
	// off[i+1] is where p_{i+1}'s range starts; placing its mail moves it to
	// where the range ends, which is where p_{i+2}'s starts.
	for _, s := range rt.shards[:rt.p] {
		for _, m := range s.out {
			if k.Active(int(m.To - 1)) {
				rt.mail[off[m.To]] = m
				off[m.To]++
			}
		}
		s.out = s.out[:0]
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
		// outboxes it leaves behind.
		if err = rt.phase(false, r); err != nil {
			break
		}
		rt.route()
		if err = rt.phase(true, r); err != nil {
			break
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
