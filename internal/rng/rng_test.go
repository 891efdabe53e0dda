package rng

import "testing"

// TestStreamKnownAnswer pins the stream to the published SplitMix64 vector:
// seeded with 0, the generator yields these three words first.
func TestStreamKnownAnswer(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	r := New(0)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("draw %d = %#016x, want %#016x", i, got, w)
		}
	}
	if z := (Stream{}); z != New(0) {
		t.Error("the zero Stream is not the stream seeded with 0")
	}
}

// TestStreamIsMixSequence checks the stream against its definition in terms
// of the finalizer the timed jitter and the service seeds hash with.
func TestStreamIsMixSequence(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 7, 1 << 62} {
		r := New(seed)
		s := uint64(seed)
		for i := 0; i < 8; i++ {
			if got, want := r.Uint64(), Mix(s); got != want {
				t.Fatalf("seed %d draw %d = %#x, want Mix = %#x", seed, i, got, want)
			}
			s += golden
		}
	}
}

func TestIntnInRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 64; n++ {
		seen := make([]bool, n)
		for i := 0; i < 64*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d, outside [0, %d)", n, v, n)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never drew %d in %d draws", n, v, 64*n)
			}
		}
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	r := New(5)
	for i := 0; i < 100000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v, outside [0, 1)", f)
		}
	}
}

func TestIntnRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r := New(1)
			r.Intn(n)
		}()
	}
}
