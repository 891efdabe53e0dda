package stats_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSampleBasics(t *testing.T) {
	var s stats.Sample
	if s.N() != 0 || s.Mean() != 0 {
		t.Error("empty sample not zeroed")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Errorf("N = %d, want 4", s.N())
	}
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %g, want 2.5", s.Mean())
	}
}

func TestPercentile(t *testing.T) {
	var s stats.Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {99, 99}, {100, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	var empty stats.Sample
	if empty.Percentile(50) != 0 {
		t.Error("empty percentile not 0")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		var s stats.Sample
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return s.Percentile(a) <= s.Percentile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanWithinMinMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s stats.Sample
		min, max := float64(raw[0]), float64(raw[0])
		for _, v := range raw {
			fv := float64(v)
			s.Add(fv)
			if fv < min {
				min = fv
			}
			if fv > max {
				max = fv
			}
		}
		return s.Mean() >= min && s.Mean() <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
