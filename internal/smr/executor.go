package smr

// executor.go is the execution stage of a service session: one goroutine
// beside the caller's launch loop that runs every slot's consensus instance.
// It owns everything an instance touches (the engine, the consensus system,
// the permutation, the adversary and the omitter) and keeps its own
// copy of the dead set, so the two stages share nothing but a ring of two
// chunks of slot records.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/timed"
)

// chunkSlots is how many slots one chunk of the ring carries. While the
// executor runs one chunk the caller folds and refills the other, so a
// larger chunk means fewer handoffs; 48 keeps the ring, two chunks of slot
// records and a header each, at 3 KiB and the executor within a 4 KiB
// allocation.
const chunkSlots = 48

// slotRun is one slot as the two stages hand it over: the launch stage fills
// start and batch, the executor the instance's rounds and duration.
type slotRun struct {
	start  float64 // launch time on the service clock
	batch  int     // commands the slot commits
	dur    float64 // the instance's SimTime, or its rounds on a round engine
	rounds int
}

// chunk is one half of the ring: the slots launched into it, how many of
// them the executor ran, and the error of the slot it stopped at (ran < n
// only then).
type chunk struct {
	slots  [chunkSlots]slotRun
	n, ran int
	err    error
}

// executor runs a session's instances in slot order. Chunk k of the session
// is ring[k%2]; the caller launches into a chunk only after it has folded
// the chunk's previous slots.
type executor struct {
	kind     harness.Kind
	timed    bool
	rotate   bool
	schedule []crash
	applied  int // schedule entries applied to dead

	// One engine, one system, one permutation and one adversary serve every
	// slot; the adversary reads dead and perm, which each slot refills in
	// place. The engine is built by the first slot; engines counts the build
	// and the reuses.
	eng       harness.Engine
	engines   harness.PoolStats
	spec      protocol.Spec
	systems   protocol.Systems
	dead      []bool // by replica id - 1
	perm      []sim.ProcID
	proposals []sim.Value
	crashes   slotAdversary
	om        *svcOmitter // nil without omission faults
	adv       sim.Adversary

	// latency is what every job is priced by: a Profile priced once, the
	// slot's re-seeded Jitter, or the session's model as given.
	latency    timed.LatencyModel
	priced     timed.Priced
	jitter     timed.Jitter
	jitterSeed int64
	reseed     bool

	slot     int   // slots run
	err      error // the first instance error; nothing runs after it
	counters metrics.Counters
	ledger   metrics.Ledger
	omissive map[sim.ProcID]int

	ring [2]chunk

	// The handoff: the caller counts the chunks it queued, the executor the
	// chunks it ran, and each stage polls the other's count before it sleeps
	// on cond. Without the goroutine the caller runs each chunk as it queues
	// it.
	queued, ran     atomic.Int64
	poll            bool // a second P can run the other stage while one polls
	mu              sync.Mutex
	cond            sync.Cond
	running, closed bool
}

// newExecutor builds the executor of a session; it runs nothing until a
// chunk is submitted.
func newExecutor(opts *ServeOptions, kind harness.Kind, timedEngine bool, schedule []crash) *executor {
	ex := &executor{
		kind:      kind,
		timed:     timedEngine,
		rotate:    opts.RotateLeader,
		schedule:  schedule,
		spec:      protocol.Spec{Protocol: string(opts.Protocol), N: opts.N, T: opts.N - 1, Bits: opts.Bits},
		dead:      make([]bool, opts.N),
		perm:      make([]sim.ProcID, opts.N),
		proposals: make([]sim.Value, opts.N),
	}
	ex.cond.L = &ex.mu
	ex.poll = runtime.GOMAXPROCS(0) > 1
	ex.crashes = slotAdversary{dead: ex.dead, perm: ex.perm}
	ex.adv = &ex.crashes
	if om := opts.Omit; om != nil {
		faulty := make([]bool, opts.N)
		for _, p := range om.Procs {
			faulty[p-1] = true
		}
		ex.om = &svcOmitter{opt: om, faulty: faulty, perm: ex.perm, n: opts.N}
		ex.adv = &svcAdversary{slotAdversary: ex.crashes, om: ex.om}
	}
	switch m := opts.Latency.(type) {
	case timed.Profile:
		ex.priced = m.Price()
		ex.latency = &ex.priced
	case timed.Jitter:
		// Re-seeded per slot by hashing the slot index, so the per-message
		// jitter pattern varies along the stream while staying a pure
		// function of (seed, slot, message).
		ex.jitter, ex.jitterSeed, ex.reseed = m, m.Seed, true
		ex.latency = &ex.jitter
	default:
		ex.latency = opts.Latency
	}
	return ex
}

// start runs the executor on its own goroutine until stop.
func (ex *executor) start() {
	ex.running = true
	go ex.loop()
}

// loop is the executor goroutine: it runs the queued chunks in order.
func (ex *executor) loop() {
	for k := int64(0); ex.await(&ex.queued, k); k++ {
		ex.run(&ex.ring[k%int64(len(ex.ring))])
		ex.ran.Store(k + 1)
		ex.wake()
	}
	ex.mu.Lock()
	ex.running = false
	ex.cond.Broadcast()
	ex.mu.Unlock()
}

// submit queues the next chunk; without the goroutine it runs it here.
func (ex *executor) submit(c *chunk) {
	if !ex.running {
		ex.run(c)
		return
	}
	ex.queued.Add(1)
	ex.wake()
}

// wait returns chunk k of the session once the executor has run it.
func (ex *executor) wait(k int) *chunk {
	if ex.running {
		ex.await(&ex.ran, int64(k))
	}
	return &ex.ring[k%len(ex.ring)]
}

// pollFor bounds how long a stage polls before it sleeps. A sleeping stage
// is woken on an idle CPU, which the host may take a chunk's run time to
// schedule; on 2 vCPUs polling instead cut a 100k-command serve_crash
// session from ≈ 9.5 to ≈ 8 ms.
const pollFor = 200 * time.Microsecond

// await waits until the count n exceeds k, polling first when it can, and
// reports whether it does: false once stop has closed the executor with n
// at k.
func (ex *executor) await(n *atomic.Int64, k int64) bool {
	if ex.poll {
		for t := time.Now(); n.Load() <= k && time.Since(t) < pollFor; {
		}
	}
	if n.Load() > k {
		return true
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for n.Load() <= k && !ex.closed {
		ex.cond.Wait()
	}
	return n.Load() > k
}

// wake wakes a stage sleeping in await.
func (ex *executor) wake() {
	ex.mu.Lock()
	ex.cond.Broadcast()
	ex.mu.Unlock()
}

// stop joins the executor goroutine, which runs what was queued first, and
// releases the engine's resources (the lockstep runtime's goroutines). It is
// idempotent.
func (ex *executor) stop() {
	ex.mu.Lock()
	ex.closed = true
	ex.cond.Broadcast()
	for ex.running {
		ex.cond.Wait()
	}
	ex.mu.Unlock()
	if cl, ok := ex.eng.(interface{ Close() }); ok {
		cl.Close()
	}
}

// run runs a chunk's slots until one fails.
func (ex *executor) run(c *chunk) {
	c.ran = 0
	for c.ran < c.n && ex.err == nil {
		if ex.err = ex.runSlot(&c.slots[c.ran]); ex.err == nil {
			c.ran++
		}
	}
	c.err = ex.err
}

// runSlot runs the next slot's instance, audits it, adds its traffic to the
// executor's totals and records its rounds and duration.
func (ex *executor) runSlot(r *slotRun) error {
	ex.slot++
	slot := ex.slot
	// Crash injection: replicas whose crash time has passed are dead for
	// this and every later instance.
	for ; ex.applied < len(ex.schedule) && ex.schedule[ex.applied].t <= r.start; ex.applied++ {
		ex.dead[ex.schedule[ex.applied].id-1] = true
	}
	fillPermutation(ex.perm, ex.dead, ex.rotate)
	for i := range ex.proposals {
		ex.proposals[i] = Command(slot, ex.perm[i])
	}
	procs, model, horizon := ex.spec.Build(&ex.systems, ex.proposals)
	if ex.om != nil {
		ex.om.slot = slot
	}
	if ex.reseed {
		ex.jitter.Seed = int64(rng.Mix(uint64(ex.jitterSeed) ^ uint64(slot)))
	}
	if ex.eng == nil {
		eng, err := harness.New(ex.kind)
		if err != nil {
			return fmt.Errorf("smr: slot %d: %w", slot, err)
		}
		ex.eng = eng
		ex.engines.Built++
	} else {
		ex.engines.ReuseHits++
	}
	out, err := ex.eng.Run(harness.Job{Model: model, Horizon: horizon, Procs: procs, Adv: ex.adv, Latency: ex.latency})
	if err != nil {
		return fmt.Errorf("smr: slot %d (t=%g): %w", slot, r.start, err)
	}
	// The adapter audited the budget-free laws; the slot's fault budget is
	// service knowledge, audited here.
	budget := laws.Budget{Crashes: ex.applied}
	if ex.om != nil {
		budget.Omissive = len(ex.om.opt.Procs)
	}
	if aerr := laws.AuditBudget(out, budget); aerr != nil {
		return fmt.Errorf("smr: slot %d: %w", slot, aerr)
	}
	if _, err := agreedValue(out, ex.proposals); err != nil {
		return fmt.Errorf("smr: slot %d (t=%g): %w", slot, r.start, err)
	}

	r.rounds = int(out.Rounds)
	r.dur = float64(out.Rounds)
	if ex.timed {
		r.dur = out.SimTime
	}
	ex.counters.Merge(out.Counters)
	ex.ledger.Merge(out.Ledger)
	for i, o := range out.Procs {
		if o.OmissiveRounds == 0 {
			continue
		}
		if ex.omissive == nil {
			ex.omissive = map[sim.ProcID]int{}
		}
		ex.omissive[ex.perm[i]] += o.OmissiveRounds
	}
	return nil
}
