package workload_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

// drain pops n arrivals from an open source.
func drain(t *testing.T, sched workload.Schedule, seed int64, n int) []float64 {
	t.Helper()
	o, err := workload.NewOpen(sched, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = o.Pop()
	}
	return out
}

func TestOpenDeterministicPerSeed(t *testing.T) {
	scheds := []workload.Schedule{
		workload.Fixed{Rate: 100},
		workload.Poisson{Rate: 100},
		workload.Bursty(50, 500, 1, 0.25),
	}
	for _, s := range scheds {
		a := drain(t, s, 42, 5000)
		b := drain(t, s, 42, 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: arrival %d differs across identical seeds: %g vs %g", s, i, a[i], b[i])
			}
		}
		c := drain(t, s, 43, 100)
		if s.String() != (workload.Fixed{Rate: 100}).String() && a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
			t.Errorf("%v: different seeds produced identical arrivals", s)
		}
	}
}

func TestArrivalsNondecreasingAndFinite(t *testing.T) {
	for _, s := range []workload.Schedule{
		workload.Fixed{Rate: 7},
		workload.Poisson{Rate: 7},
		workload.Bursty(2, 40, 3, 1),
	} {
		prev := 0.0
		for i, a := range drain(t, s, 1, 10000) {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Fatalf("%v: arrival %d is %g", s, i, a)
			}
			if a < prev {
				t.Fatalf("%v: arrival %d at %g precedes %g", s, i, a, prev)
			}
			prev = a
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	const rate, n = 250.0, 100000
	arr := drain(t, workload.Poisson{Rate: rate}, 7, n)
	got := float64(n) / arr[n-1]
	if math.Abs(got-rate)/rate > 0.05 {
		t.Errorf("empirical rate %g, want %g within 5%%", got, rate)
	}
}

func TestFixedSpacing(t *testing.T) {
	arr := drain(t, workload.Fixed{Rate: 4}, 0, 10)
	for i, a := range arr {
		want := float64(i+1) * 0.25
		if math.Abs(a-want) > 1e-12 {
			t.Errorf("arrival %d at %g, want %g", i, a, want)
		}
	}
}

func TestBurstyPhasesChangeRate(t *testing.T) {
	// 1 time unit at rate 10, then 1 at rate 1000, cycling. Count arrivals
	// in each phase of the first cycle.
	s := workload.Cycle{Phases: []workload.Phase{
		{Dur: 1, Rate: 10, Poisson: true},
		{Dur: 1, Rate: 1000, Poisson: true},
	}}
	o, err := workload.NewOpen(s, 11)
	if err != nil {
		t.Fatal(err)
	}
	base, burst := 0, 0
	for {
		a := o.Pop()
		if a >= 2 {
			break
		}
		if a < 1 {
			base++
		} else {
			burst++
		}
	}
	if base > 5*burst/100+30 || burst < 500 {
		t.Errorf("phase counts base=%d burst=%d do not reflect the 10 vs 1000 rates", base, burst)
	}
}

func TestScheduleValidation(t *testing.T) {
	bad := []workload.Schedule{
		workload.Fixed{Rate: 0},
		workload.Fixed{Rate: -3},
		workload.Poisson{Rate: 0},
		workload.Cycle{},
		workload.Cycle{Phases: []workload.Phase{{Dur: 0, Rate: 5}}},
		workload.Cycle{Phases: []workload.Phase{{Dur: 1, Rate: 0}}},
	}
	for _, s := range bad {
		if _, err := workload.NewOpen(s, 0); err == nil {
			t.Errorf("NewOpen accepted invalid schedule %v", s)
		}
	}
}

// TestScheduleRejectsNonFiniteRates: a +Inf rate makes every gap zero, an
// endless burst at one instant, and NaN generates nothing; each is a config
// error that names the rate.
func TestScheduleRejectsNonFiniteRates(t *testing.T) {
	for _, rate := range []float64{math.Inf(1), math.NaN(), math.Inf(-1)} {
		for _, s := range []workload.Schedule{
			workload.Fixed{Rate: rate},
			workload.Poisson{Rate: rate},
			workload.Bursty(1, rate, 1, 1),
			workload.Cycle{Phases: []workload.Phase{{Dur: 1, Rate: rate}}},
		} {
			_, err := workload.NewOpen(s, 0)
			if err == nil {
				t.Errorf("NewOpen accepted %v", s)
				continue
			}
			if want := fmt.Sprintf("rate %g must be", rate); !strings.Contains(err.Error(), want) {
				t.Errorf("%v: error %q does not name the rate (%q)", s, err, want)
			}
		}
	}
}

func TestClosedLoop(t *testing.T) {
	if _, err := workload.NewClosed(0, 1, false, 0); err == nil {
		t.Error("accepted zero clients")
	}
	if _, err := workload.NewClosed(4, -1, false, 0); err == nil {
		t.Error("accepted negative think time")
	}
	c, err := workload.NewClosed(4, 0.5, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if g := c.ThinkGap(); g != 0.5 {
			t.Fatalf("fixed think gap = %g, want 0.5", g)
		}
	}
	p1, err := workload.NewClosed(4, 0.5, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := workload.NewClosed(4, 0.5, true, 9)
	sum := 0.0
	for i := 0; i < 1000; i++ {
		g1, g2 := p1.ThinkGap(), p2.ThinkGap()
		if g1 != g2 {
			t.Fatalf("think gap %d differs across identical seeds", i)
		}
		sum += g1
	}
	if mean := sum / 1000; math.Abs(mean-0.5) > 0.1 {
		t.Errorf("poisson think mean %g, want ~0.5", mean)
	}
	z, err := workload.NewClosed(2, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g := z.ThinkGap(); g != 0 {
		t.Errorf("zero think gap = %g", g)
	}
}
