package des_test

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

// TestResetRewindsEverything pins Reset semantics: clock, pending events
// and audit books all return to the zero state, and the next run is
// indistinguishable from a run on a fresh Sim.
func TestResetRewindsEverything(t *testing.T) {
	var s des.Sim
	s.At(5, func() {})
	s.At(9, func() {})
	s.Run(6) // one executed, one pending
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 {
		t.Fatalf("after Reset: Now=%v Pending=%d, want both zero", s.Now(), s.Pending())
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("Audit after Reset: %v", err)
	}
	var order []int
	for i := 3; i >= 1; i-- {
		i := i
		s.At(des.Time(i), func() { order = append(order, i) })
	}
	s.Run(des.Infinity)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("post-Reset run order = %v, want [1 2 3]", order)
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("Audit after the post-Reset run: %v", err)
	}
}

// TestColdChainAllocatesOneSmallSlab pins what a cold simulation that keeps
// one event outstanding, as the timed engine does, pays for its event pool:
// a slab of 8 events, where a full 64-event slab alone took 3 KiB.
func TestColdChainAllocatesOneSmallSlab(t *testing.T) {
	chain := func() {
		var s des.Sim
		left := 100
		var next func()
		next = func() {
			if left--; left > 0 {
				s.After(1, next)
			}
		}
		s.At(0, next)
		s.Run(des.Infinity)
	}
	// Averaged over many chains: the heap counters are the process's, and
	// a stray allocation elsewhere must not read as the chain's.
	const chains = 1000
	chain()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range chains {
		chain()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / chains; b > 1<<10 {
		t.Errorf("a cold chain of events allocates %d B, want <= 1 KiB", b)
	}
}

// TestSchedulingAllocFree pins the pooling dividend: once the free list is
// warm, the schedule→run cycle allocates nothing.
func TestSchedulingAllocFree(t *testing.T) {
	var s des.Sim
	tick := func() {}
	run := func() {
		s.Reset()
		for i := 0; i < 32; i++ {
			s.At(des.Time(i%7), tick)
		}
		s.Run(des.Infinity)
	}
	run() // warm the pool and the heap slice
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Errorf("warm schedule/run cycle allocates %.1f allocs/run, want 0", allocs)
	}
}

// refSim is the retained reference implementation for the pooled/4-ary
// differential: the pre-pooling des core verbatim — container/heap's
// interface-boxed binary heap, one heap-allocated event per schedule, no
// recycling. It executes (time, ord) sequences that the rebuilt core must
// reproduce exactly.
type refSim struct {
	queue     refHeap
	now       des.Time
	seq       uint64
	steps     int
	scheduled int
}

type refEvent struct {
	at  des.Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (s *refSim) at(t des.Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e := &refEvent{at: t, seq: s.seq, fn: fn}
	heap.Push(&s.queue, e)
	s.scheduled++
}

func (s *refSim) run(until des.Time) {
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.at > until {
			break
		}
		heap.Pop(&s.queue)
		s.now = next.at
		s.steps++
		next.fn()
	}
}

func (s *refSim) reset() { *s = refSim{} }

func (s *refSim) booksBalance() bool {
	return s.scheduled == s.steps+len(s.queue)
}

// execRecord is one executed event as observed by the differential: the
// simulated time it ran at and its global scheduling order within the
// current run.
type execRecord struct {
	at  des.Time
	ord int
}

// simOp is one differential script step, interpreted identically by both
// simulators.
type simOp struct {
	kind  int      // 0 schedule, 1 run-until, 2 reset
	at    des.Time // schedule target / run horizon
	child bool     // schedule: the event itself schedules a child at now+0.5
}

// TestPooledSimDifferentialProperty is the satellite testing/quick property:
// the pooled, 4-ary, resettable des.Sim produces the same (time, ord)
// execution sequence — and the same clean Audit verdict — as the retained
// reference implementation (refSim: the pre-pooling container/heap core),
// over random interleavings of scheduling (from outside and from inside
// events), Run horizons, and Reset. The op script is generated
// once and replayed against both simulators, so any divergence is a
// pooling/heap/Reset bug, not test noise.
func TestPooledSimDifferentialProperty(t *testing.T) {
	prop := func(seed int64, nOpsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nOps := int(nOpsRaw%48) + 8
		ops := make([]simOp, nOps)
		for i := range ops {
			o := simOp{kind: rng.Intn(3), at: des.Time(rng.Intn(12)), child: rng.Intn(3) == 0}
			if o.kind == 2 && rng.Intn(3) != 0 {
				o.kind = 0 // keep Reset rare enough that runs have depth
			}
			ops[i] = o
		}
		ops = append(ops, simOp{kind: 1, at: des.Infinity}) // final drain

		var got, want []execRecord
		var s des.Sim
		gotClean := drivePooled(&s, ops, &got)
		var r refSim
		wantClean := driveRef(&r, ops, &want)

		if gotClean != wantClean {
			t.Logf("seed %d: audit clean %v (pooled) vs %v (reference)", seed, gotClean, wantClean)
			return false
		}
		if len(got) != len(want) {
			t.Logf("seed %d: executed %d events (pooled) vs %d (reference)", seed, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d: execution %d = %+v (pooled) vs %+v (reference)", seed, i, got[i], want[i])
				return false
			}
		}
		if s.Now() != r.now || s.Pending() != len(r.queue) {
			t.Logf("seed %d: state Now/Pending %v/%d vs %v/%d",
				seed, s.Now(), s.Pending(), r.now, len(r.queue))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// drivePooled replays an op script on the pooled des.Sim, appending executed
// (time, per-run ord) records, and reports whether every Audit along the way
// was clean.
func drivePooled(s *des.Sim, ops []simOp, got *[]execRecord) bool {
	clean := true
	ord := 0
	var schedule func(at des.Time, child bool)
	schedule = func(at des.Time, child bool) {
		id := ord
		ord++
		s.At(at, func() {
			*got = append(*got, execRecord{at: s.Now(), ord: id})
			if child {
				schedule(s.Now()+0.5, false)
			}
		})
	}
	for _, o := range ops {
		switch o.kind {
		case 0:
			schedule(o.at, o.child)
		case 1:
			s.Run(o.at)
			if s.Audit() != nil {
				clean = false
			}
		case 2:
			s.Reset()
			ord = 0
		}
	}
	if s.Audit() != nil {
		clean = false
	}
	return clean
}

// driveRef replays the identical op script on the reference implementation.
// Its structure mirrors drivePooled line for line; only the simulator type
// differs.
func driveRef(r *refSim, ops []simOp, want *[]execRecord) bool {
	clean := true
	ord := 0
	var schedule func(at des.Time, child bool)
	schedule = func(at des.Time, child bool) {
		id := ord
		ord++
		r.at(at, func() {
			*want = append(*want, execRecord{at: r.now, ord: id})
			if child {
				schedule(r.now+0.5, false)
			}
		})
	}
	for _, o := range ops {
		switch o.kind {
		case 0:
			schedule(o.at, o.child)
		case 1:
			r.run(o.at)
			if !r.booksBalance() {
				clean = false
			}
		case 2:
			r.reset()
			ord = 0
		}
	}
	if !r.booksBalance() {
		clean = false
	}
	return clean
}
