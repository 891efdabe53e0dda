package timing_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/timing"
)

func TestOptimalRounds(t *testing.T) {
	cases := []struct {
		f, t    int
		classic int
		ext     int
	}{
		{0, 3, 2, 1},
		{1, 3, 3, 2},
		{2, 3, 4, 3},
		{3, 3, 4, 4}, // classic capped at t+1
		{0, 1, 2, 1},
		{1, 1, 2, 2},
	}
	for _, c := range cases {
		if got := timing.ClassicOptimalRounds(c.f, c.t); got != c.classic {
			t.Errorf("ClassicOptimalRounds(%d,%d) = %d, want %d", c.f, c.t, got, c.classic)
		}
		if got := timing.ExtendedOptimalRounds(c.f); got != c.ext {
			t.Errorf("ExtendedOptimalRounds(%d) = %d, want %d", c.f, got, c.ext)
		}
	}
}

func TestCrossoverMatchesPaperRule(t *testing.T) {
	// Section 2.2: for f <= t-1 the extended model wins iff δ < D/(f+1).
	const d = 1.0
	for f := 0; f <= 5; f++ {
		tt := 7
		want := d / float64(f+1)
		if got := timing.CrossoverDelta(d, f, tt); math.Abs(got-want) > 1e-12 {
			t.Errorf("CrossoverDelta(f=%d) = %g, want %g", f, got, want)
		}
	}
	// At f == t the classic optimal is t+1 == f+1: no advantage possible.
	if got := timing.CrossoverDelta(d, 4, 4); got != 0 {
		t.Errorf("CrossoverDelta(f=t) = %g, want 0", got)
	}
}

func TestAdvantageSignAroundCrossover(t *testing.T) {
	const d = 1.0
	for f := 0; f <= 4; f++ {
		tt := 6
		star := timing.CrossoverDelta(d, f, tt)
		below := timing.Cost{D: d, Delta: star * 0.9}
		above := timing.Cost{D: d, Delta: star * 1.1}
		if !below.ExtendedWins(f, tt) {
			t.Errorf("f=%d: extended should win below crossover (δ=%g)", f, below.Delta)
		}
		if above.ExtendedWins(f, tt) {
			t.Errorf("f=%d: extended should lose above crossover (δ=%g)", f, above.Delta)
		}
	}
}

func TestTimesAndString(t *testing.T) {
	c := timing.Cost{D: 2, Delta: 0.5}
	if got := c.ExtendedRound(); got != 2.5 {
		t.Errorf("ExtendedRound = %g, want 2.5", got)
	}
	if got := c.ClassicTime(3); got != 6 {
		t.Errorf("ClassicTime(3) = %g, want 6", got)
	}
	if got := c.ExtendedTime(2); got != 5 {
		t.Errorf("ExtendedTime(2) = %g, want 5", got)
	}
}

func TestAdvantagePropertyDeltaZero(t *testing.T) {
	// Property: with δ = 0 the extended model never loses (it needs at most
	// as many rounds as the classic optimum, for every f <= t).
	f := func(fRaw, tRaw uint8) bool {
		tt := int(tRaw%8) + 1
		ff := int(fRaw) % (tt + 1)
		c := timing.Cost{D: 1, Delta: 0}
		return c.Advantage(ff, tt) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdvantageMonotoneInDelta(t *testing.T) {
	// Property: the advantage strictly decreases as δ grows.
	f := func(fRaw, tRaw uint8, d1, d2 float64) bool {
		tt := int(tRaw%8) + 1
		ff := int(fRaw) % (tt + 1)
		a, b := math.Abs(d1), math.Abs(d2)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		// Keep δ in a physically meaningful range to avoid float overflow.
		a, b = math.Mod(a, 1e6), math.Mod(b, 1e6)
		if a > b {
			a, b = b, a
		}
		if a == b {
			return true
		}
		lo := timing.Cost{D: 1, Delta: a}
		hi := timing.Cost{D: 1, Delta: b}
		return lo.Advantage(ff, tt) > hi.Advantage(ff, tt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
