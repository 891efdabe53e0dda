package des_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var s des.Sim
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run(des.Infinity)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
}

func TestTiesBreakFIFO(t *testing.T) {
	var s des.Sim
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run(des.Infinity)
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie order = %v, want FIFO", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var s des.Sim
	var at des.Time
	s.At(2, func() {
		s.After(3, func() { at = s.Now() })
	})
	s.Run(des.Infinity)
	if at != 5 {
		t.Errorf("After fired at %v, want 5", at)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var s des.Sim
	var at des.Time = -1
	s.At(10, func() {
		s.At(1, func() { at = s.Now() }) // in the past: runs "now"
	})
	s.Run(des.Infinity)
	if at != 10 {
		t.Errorf("past event ran at %v, want 10", at)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	var s des.Sim
	ran := 0
	s.At(1, func() { ran++ })
	s.At(100, func() { ran++ })
	s.Run(50)
	if ran != 1 {
		t.Errorf("ran %d events, want 1", ran)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	s.Run(des.Infinity)
	if ran != 2 {
		t.Errorf("ran %d events after resume, want 2", ran)
	}
}

func TestStopEndsRun(t *testing.T) {
	var s des.Sim
	ran := 0
	s.At(1, func() { ran++; s.Stop() })
	s.At(2, func() { ran++ })
	s.Run(des.Infinity)
	if ran != 1 {
		t.Errorf("ran %d events, want 1 (Stop ignored)", ran)
	}
}

func TestEventsCanCascade(t *testing.T) {
	var s des.Sim
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 100 {
			depth++
			s.After(1, recurse)
		}
	}
	s.At(0, recurse)
	end := s.Run(des.Infinity)
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if end != 100 {
		t.Errorf("end time = %v, want 100", end)
	}
}

// TestExecutionOrderProperty is the satellite testing/quick property for the
// event core: under arbitrary random interleavings of scheduling (from
// outside and from inside running events, including past times), the
// executed events form a sequence that is nondecreasing in time with FIFO
// tie-breaking by scheduling order, every event runs exactly once, and the
// audit books balance.
func TestExecutionOrderProperty(t *testing.T) {
	type executed struct {
		at  des.Time
		seq int // global scheduling order
	}
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s des.Sim
		var got []executed
		seq := 0

		// schedule registers one event at time at, recording its identity.
		var schedule func(at des.Time)
		schedule = func(at des.Time) {
			id := seq
			seq++
			s.At(at, func() {
				got = append(got, executed{at: maxTime(at, s.Now()), seq: id})
				// Events may themselves schedule, possibly in the past,
				// which clamps to Now.
				if rng.Intn(3) == 0 && seq < int(nOps)+64 {
					schedule(s.Now() + des.Time(rng.Float64()*4-1))
				}
			})
		}

		n := int(nOps%64) + 1
		for i := 0; i < n; i++ {
			schedule(des.Time(rng.Float64() * 10))
		}
		s.Run(des.Infinity)

		// Nondecreasing in time; FIFO (by scheduling order) among ties.
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				t.Logf("seed %d: time went backwards: %v after %v", seed, got[i], got[i-1])
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				t.Logf("seed %d: FIFO tie-break violated: seq %d ran after %d at t=%v",
					seed, got[i-1].seq, got[i].seq, got[i].at)
				return false
			}
		}
		// Every event ran exactly once.
		seen := make([]bool, seq)
		for _, e := range got {
			if seen[e.seq] {
				t.Logf("seed %d: event %d executed twice", seed, e.seq)
				return false
			}
			seen[e.seq] = true
		}
		if len(got) != seq {
			t.Logf("seed %d: %d executed != %d scheduled", seed, len(got), seq)
			return false
		}
		if s.Pending() != 0 {
			t.Logf("seed %d: Pending %d after drain", seed, s.Pending())
			return false
		}
		if err := s.Audit(); err != nil {
			t.Logf("seed %d: Audit: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func maxTime(a, b des.Time) des.Time {
	if a > b {
		return a
	}
	return b
}

// TestAuditCleanRuns pins the checked invariant on well-behaved schedules:
// after any mix of execution and an early horizon, Audit reports clean
// books.
func TestAuditCleanRuns(t *testing.T) {
	var s des.Sim
	s.At(1, func() {})
	s.At(2, func() { s.After(1, func() {}) })
	s.At(5, func() {})
	s.Run(3) // t=5 event still pending
	if err := s.Audit(); err != nil {
		t.Fatalf("Audit mid-run: %v", err)
	}
	s.Run(des.Infinity)
	if err := s.Audit(); err != nil {
		t.Fatalf("Audit after drain: %v", err)
	}
}

// TestAuditCatchesLIFOTies plants the FIFO-tie mutation: LIFOTies mangles the
// heap's tie-break key while the ground-truth scheduling order stays honest,
// so the order detector must report the first same-time pair that executed in
// reverse scheduling order.
func TestAuditCatchesLIFOTies(t *testing.T) {
	var s des.Sim
	s.LIFOTies = true
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.At(7, func() { order = append(order, i) })
	}
	s.Run(des.Infinity)
	if order[0] == 0 {
		t.Fatalf("LIFOTies mutation did not reorder ties: %v", order)
	}
	err := s.Audit()
	if err == nil {
		t.Fatal("Audit passed a LIFO tie order")
	}
	if got := err.Error(); !strings.Contains(got, "FIFO tie order violated") {
		t.Errorf("Audit error = %q, want FIFO tie violation", got)
	}
}

// TestAuditCatchesLIFOTiesUnderProperty re-runs the random-interleaving
// property with the mutation planted: any seed that produces at least one
// same-time pair must be flagged by Audit.
func TestAuditCatchesLIFOTiesUnderProperty(t *testing.T) {
	var s des.Sim
	s.LIFOTies = true
	rng := rand.New(rand.NewSource(42))
	ties := 0
	for i := 0; i < 50; i++ {
		t := des.Time(rng.Intn(10)) // small range forces ties
		s.At(t, func() {})
		s.At(t, func() { ties++ })
	}
	s.Run(des.Infinity)
	if err := s.Audit(); err == nil {
		t.Fatal("Audit passed despite mangled tie keys")
	}
}
