// Package des is a minimal deterministic discrete-event simulator used by
// the continuous-time substrates of this repository (the fast failure
// detector model of experiment E7 and the timed consensus engine of
// internal/timed).
//
// Events are callbacks scheduled at absolute times and executed in
// nondecreasing time order; ties are broken by scheduling order (FIFO), which
// keeps runs fully deterministic. A scheduled event always runs: nothing
// cancels one.
//
// The core is built for reuse on hot paths: event records come from a
// block-allocated free list and are recycled the moment they execute, the
// priority queue is a hand-rolled 4-ary heap (no interface boxing, shallower
// than a binary heap), and Reset rewinds a simulation for the next run while
// keeping every buffer.
package des

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/telemetry"
)

// Time is simulated time. Units are whatever the caller chooses (the FFD
// experiments use the classic round duration D as the unit).
type Time float64

// Infinity is a time later than any schedulable event.
const Infinity Time = Time(math.MaxFloat64)

// Action is the allocation-free callback form: schedulers that would
// otherwise capture per-event state in a closure (one heap allocation per
// event) implement Act on a pooled record and pass the record itself.
type Action interface {
	Act()
}

// event is one scheduled callback slot. Slots are pooled: executed events
// return to the simulation's free list and are reused by later schedule
// calls.
//
// seq is the heap tie-break key; ord is the ground-truth scheduling order.
// They are normally identical, but the order audit must not trust the key the
// heap sorts by (a detector comparing the heap against its own key can never
// fire), so violations are detected against ord. The LIFOTies test hook
// mangles only seq, leaving ord truthful — which is exactly what makes the
// planted reordering observable.
type event struct {
	at  Time
	seq uint64
	ord uint64
	fn  func()
	act Action
}

// Events are allocated in slabs so a cold simulation pays O(peak/blockSize)
// allocations, not O(events). The first slab holds only firstBlock events:
// the timed engine keeps one event outstanding, and its simulation allocates
// 384 B instead of 3 KiB.
const (
	firstBlock = 8
	blockSize  = 64
)

// Sim is a discrete-event simulation. The zero value is ready to use.
type Sim struct {
	heap    []*event // 4-ary min-heap on (at, seq)
	free    []*event // recycled event slots
	now     Time
	seq     uint64
	stopped bool
	steps   int

	// Audit bookkeeping (see Audit): every event ever scheduled must be
	// accounted for as executed or still pending.
	scheduled int
	// Order audit: the (time, scheduling order) of the last executed event,
	// and the first recorded violation of the execution contract.
	lastAt         Time
	lastOrd        uint64
	orderViolation string

	// LIFOTies is a law-audit test hook: when set, newly scheduled events get
	// a tie-break key that reverses FIFO order among same-time events (ties
	// pop LIFO) while their ground-truth scheduling order stays truthful. A
	// run with simultaneous events then violates the FIFO tie contract, which
	// Audit must detect. Never set outside tests.
	LIFOTies bool

	// Telemetry, when non-nil, receives one event-batch span per maximal run
	// of same-time events (spanning from the batch's timestamp to the next
	// clock advance) plus heap-depth and pool-hit-rate samples at each
	// advance, on the DES track. The owner of the Sim sets it before Run; a
	// nil recorder costs nothing on the hot path.
	Telemetry *telemetry.Recorder

	// Event-pool accounting: allocs counts every event-slot request, poolHits
	// the requests served without growing the free list. Plain increments —
	// they ride the zero-alloc hot path unconditionally.
	allocs   int
	poolHits int
	// slabbed records that the first slab has been allocated.
	slabbed bool

	// Open event-batch state for Telemetry (meaningful only when recording).
	batchOpen  bool
	batchStart Time
	batchCount int32
	batchOrd   int32
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// alloc takes an event slot from the free list, growing it by one slab when
// empty.
func (s *Sim) alloc() *event {
	s.allocs++
	if len(s.free) > 0 {
		s.poolHits++
	}
	if len(s.free) == 0 {
		n := blockSize
		if !s.slabbed {
			n, s.slabbed = firstBlock, true
		}
		blk := make([]event, n)
		s.free = slices.Grow(s.free, n)
		for i := range blk {
			s.free = append(s.free, &blk[i])
		}
	}
	e := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return e
}

// release recycles a spent event slot, dropping its callback.
func (s *Sim) release(e *event) {
	e.fn, e.act = nil, nil
	s.free = append(s.free, e)
}

// schedule is the common body of At/AtAct.
func (s *Sim) schedule(t Time, fn func(), act Action) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	key := s.seq
	if s.LIFOTies {
		key = math.MaxUint64 - s.seq
	}
	e := s.alloc()
	e.at, e.seq, e.ord, e.fn, e.act = t, key, s.seq, fn, act
	s.push(e)
	s.scheduled++
}

// At schedules fn at absolute time t. Scheduling in the past (t < Now) runs
// the event at the current time instead — events never rewind the clock.
func (s *Sim) At(t Time, fn func()) { s.schedule(t, fn, nil) }

// After schedules fn at Now()+d.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// AtAct schedules a pooled Action at absolute time t. It is the
// allocation-free twin of At: the caller owns the record, so nothing is
// captured and nothing escapes per event.
func (s *Sim) AtAct(t Time, act Action) { s.schedule(t, nil, act) }

// AfterAct schedules a pooled Action at Now()+d.
func (s *Sim) AfterAct(d Time, act Action) { s.AtAct(s.now+d, act) }

// Stop ends the run after the current event returns.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events in order until the queue is empty, an event calls
// Stop, or the next event would be later than until. It returns the final
// simulated time.
func (s *Sim) Run(until Time) Time {
	s.stopped = false
	recording := s.Telemetry.Enabled()
	for len(s.heap) > 0 && !s.stopped {
		next := s.heap[0]
		if next.at > until {
			break
		}
		s.pop()
		if recording {
			// A batch is a maximal run of same-time events; its span closes —
			// and the heap/pool gauges are sampled — when the clock advances.
			if s.batchOpen && next.at != s.batchStart {
				s.closeBatch(next.at)
			}
			if !s.batchOpen {
				s.batchOpen, s.batchStart, s.batchCount = true, next.at, 0
			}
			s.batchCount++
		}
		// Execution-order contract, checked against the ground-truth
		// scheduling order rather than the heap's own tie-break key: time
		// never rewinds, and same-time events run in scheduling (FIFO) order.
		// Only the first violation is recorded; the clean path is
		// allocation-free.
		if s.orderViolation == "" {
			if next.at < s.lastAt {
				s.orderViolation = fmt.Sprintf(
					"des: clock went backwards: event at t=%v after t=%v", next.at, s.lastAt)
			} else if next.at == s.lastAt && next.ord < s.lastOrd {
				s.orderViolation = fmt.Sprintf(
					"des: FIFO tie order violated at t=%v: event #%d ran after #%d",
					next.at, next.ord, s.lastOrd)
			}
		}
		s.lastAt = next.at
		s.lastOrd = next.ord
		s.now = next.at
		s.steps++
		fn, act := next.fn, next.act
		// Recycle the slot before running, so an event the callback
		// schedules can reuse it.
		s.release(next)
		if act != nil {
			act.Act()
		} else {
			fn()
		}
	}
	if s.batchOpen {
		// Trailing batch: the clock never advanced past it, so the span is
		// instantaneous at the final time.
		s.closeBatch(s.now)
	}
	return s.now
}

// closeBatch emits the open event-batch span ending at the given clock
// advance, plus the heap-depth and pool-hit-rate samples at that boundary.
func (s *Sim) closeBatch(end Time) {
	s.Telemetry.Span(telemetry.SpanBatch, telemetry.TrackDES, s.batchOrd, s.batchCount,
		float64(s.batchStart), float64(end))
	s.Telemetry.Sample(telemetry.SeriesHeapSize, float64(end), float64(s.Pending()))
	if s.allocs > 0 {
		s.Telemetry.Sample(telemetry.SeriesPoolHitRate, float64(end),
			float64(s.poolHits)/float64(s.allocs))
	}
	s.batchOrd++
	s.batchOpen = false
	s.batchCount = 0
}

// Pending returns the number of events still scheduled to run.
func (s *Sim) Pending() int { return len(s.heap) }

// Reset rewinds the simulation to its initial state for the next run while
// keeping every allocation: the heap slice, the free list, and every pooled
// event slot survive, so a reused Sim schedules without allocating. Pending
// events are discarded, the clock returns to zero, and the audit books open
// fresh.
func (s *Sim) Reset() {
	for _, e := range s.heap {
		s.release(e)
	}
	s.heap = s.heap[:0]
	s.now = 0
	s.seq = 0
	s.stopped = false
	s.steps = 0
	s.scheduled = 0
	s.lastAt = 0
	s.lastOrd = 0
	s.orderViolation = ""
	s.allocs = 0
	s.poolHits = 0
	s.batchOpen = false
	s.batchStart = 0
	s.batchCount = 0
	s.batchOrd = 0
}

// Audit checks the simulation's execution-order contract and event
// bookkeeping after (or during) a run:
//
//   - the simulated clock never went backwards and same-time events executed
//     in scheduling (FIFO) order, judged against the ground-truth scheduling
//     sequence, not the heap's tie-break key;
//   - every event ever scheduled is accounted for exactly once:
//     scheduled == executed + pending.
//
// It returns nil on a clean run (no allocation) and a descriptive error for
// the first violation observed.
func (s *Sim) Audit() error {
	if s.orderViolation != "" {
		return fmt.Errorf("%s", s.orderViolation)
	}
	if s.scheduled != s.steps+s.Pending() {
		return fmt.Errorf("des: event bookkeeping leak: scheduled %d != executed %d + pending %d",
			s.scheduled, s.steps, s.Pending())
	}
	return nil
}

// The priority queue: a hand-rolled 4-ary min-heap on (at, seq). Compared to
// container/heap's interface-boxed binary heap it saves the dynamic dispatch
// per comparison and halves the tree depth — sift-down does more comparisons
// per level but touches fewer cache lines, which wins for short-horizon
// queues: the FFD model's in-flight messages and detector timers, or the
// timed engine's one deadline per round.

// less orders events by time, then tie-break key.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e into the heap.
func (s *Sim) push(e *event) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
}

// pop removes and returns the minimum event.
func (s *Sim) pop() *event {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	s.heap = h
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}
