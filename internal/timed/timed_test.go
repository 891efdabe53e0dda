package timed_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus/earlystop"
	"repro/internal/core"
	"repro/internal/lan"
	"repro/internal/sim"
	"repro/internal/timed"
	"repro/internal/trace"
)

// crwSystem builds a CRW process set with canonical proposals.
func crwSystem(n int) ([]sim.Process, []sim.Value) {
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = sim.Value(100 + i)
	}
	return core.NewSystem(props, core.Options{}), props
}

func TestFailureFreeDecidesInOneRound(t *testing.T) {
	procs, _ := crwSystem(6)
	eng, err := timed.New(timed.Config{Model: sim.ModelExtended}, procs, adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.MaxDecideRound() != 1 {
		t.Errorf("rounds=%d decide=%d, want decide and halt in round 1", res.Rounds, res.MaxDecideRound())
	}
	for i, o := range res.Procs {
		if o.DecideRound == 0 {
			t.Errorf("p%d never decided", i+1)
		}
	}
	// Default model: D=1, δ=0.1 → SimTime = rounds·1.1.
	want := float64(res.Rounds) * 1.1
	if math.Abs(res.SimTime-want) > 1e-9 {
		t.Errorf("SimTime = %g, want %g", res.SimTime, want)
	}
}

// TestSimTimeMatchesAnalyticCost pins the paper's claim the engine makes
// executable: under worst-case coordinator crashes the extended model's
// measured completion time is exactly rounds·(D+δ), and the classic model's
// exactly rounds·D.
func TestSimTimeMatchesAnalyticCost(t *testing.T) {
	const d, delta = 1.0, 0.25
	for f := 0; f <= 3; f++ {
		procs, _ := crwSystem(6)
		eng, err := timed.New(timed.Config{
			Model:   sim.ModelExtended,
			Latency: timed.Fixed{D: d, Delta: delta},
		}, procs, adversary.CoordinatorKiller{F: f})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxDecideRound() != sim.Round(f+1) {
			t.Errorf("f=%d: decide round %d, want %d", f, res.MaxDecideRound(), f+1)
		}
		want := float64(res.Rounds) * (d + delta)
		if math.Abs(res.SimTime-want) > 1e-9 {
			t.Errorf("f=%d: SimTime %g, want rounds·(D+δ) = %g", f, res.SimTime, want)
		}
	}

	// Classic model: the round lasts D; δ is not paid.
	props := []sim.Value{7, 7, 7, 7}
	es := earlystop.NewSystem(props, 3, 64)
	eng, err := timed.New(timed.Config{
		Model:   sim.ModelClassic,
		Latency: timed.Fixed{D: d, Delta: delta},
	}, es, adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(res.Rounds) * d
	if math.Abs(res.SimTime-want) > 1e-9 {
		t.Errorf("classic: SimTime %g, want rounds·D = %g", res.SimTime, want)
	}
}

// TestWithinBoundJitterIsSemanticallyInvisible: jitter that never exceeds
// the bound wiggles message timing but cannot change decisions, rounds or
// counters — and produces no late messages.
func TestWithinBoundJitterIsSemanticallyInvisible(t *testing.T) {
	mk := func(lat timed.LatencyModel) *sim.Result {
		procs, _ := crwSystem(5)
		eng, err := timed.New(timed.Config{Model: sim.ModelExtended, Latency: lat},
			procs, adversary.CoordinatorKiller{F: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed := mk(timed.Fixed{D: 1, Delta: 0.1})
	jit := timed.Jitter{D: 1, Delta: 0.1, Floor: 0.2, Spread: 0.7, Seed: 42}
	if jit.Floor+jit.Spread > jit.D {
		t.Fatal("test jitter model should be within bound")
	}
	jres := mk(jit)
	if jres.Counters.Late != 0 {
		t.Errorf("within-bound jitter produced %d late messages", jres.Counters.Late)
	}
	if jres.Rounds != fixed.Rounds || jres.Counters != fixed.Counters ||
		!slices.Equal(jres.Procs, fixed.Procs) {
		t.Errorf("within-bound jitter changed semantics: %+v vs %+v", jres, fixed)
	}
}

// TestOutOfBoundJitterProducesTimingFaults: a jitter spread beyond the
// synchrony slack makes some messages late, which surface as
// Counters.Late — transmitted but never delivered.
func TestOutOfBoundJitterProducesTimingFaults(t *testing.T) {
	procs, _ := crwSystem(8)
	lat := timed.Jitter{D: 1, Delta: 0.1, Floor: 0.5, Spread: 1.5, Seed: 7}
	if lat.Floor+lat.Spread <= lat.D {
		t.Fatal("test jitter model should exceed the bound")
	}
	eng, err := timed.New(timed.Config{Model: sim.ModelExtended, Horizon: 20, Latency: lat},
		procs, adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := eng.Run()
	if res.Counters.Late == 0 {
		t.Error("out-of-bound jitter produced no late messages")
	}
	// Late messages are accounted as transmitted: data+ctrl counts include
	// them, and the late count never exceeds the transmitted total.
	if res.Counters.Late > res.Counters.TotalMsgs() {
		t.Errorf("late %d > transmitted %d", res.Counters.Late, res.Counters.TotalMsgs())
	}
}

func TestProfileLatencyWithinBound(t *testing.T) {
	for _, p := range lan.Profiles() {
		m := timed.Profile{P: p, Bits: 64}
		d, delta := m.Params()
		if got := m.Latency(1, 2, 1, sim.Data); got > d {
			t.Errorf("%s: data latency %g exceeds D %g", p.Name, float64(got), float64(d))
		}
		if got := m.Latency(1, 2, 1, sim.Control); got > d+delta {
			t.Errorf("%s: ctrl latency %g exceeds D+δ %g", p.Name, float64(got), float64(delta))
		}
		procs, _ := crwSystem(4)
		eng, err := timed.New(timed.Config{Model: sim.ModelExtended, Latency: m},
			procs, adversary.CoordinatorKiller{F: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.Counters.Late != 0 {
			t.Errorf("%s: %d late messages on an in-bound profile", p.Name, res.Counters.Late)
		}
		want := float64(res.Rounds) * (p.D(64) + p.Delta())
		if math.Abs(res.SimTime-want) > want*1e-9 {
			t.Errorf("%s: SimTime %g, want %g", p.Name, res.SimTime, want)
		}
	}
}

// TestPricedProfileIsTheProfile requires a priced profile to be the profile
// to the last bit: the same parameters and, for every message, the same
// latency, on every standard profile and payload width.
func TestPricedProfileIsTheProfile(t *testing.T) {
	for _, p := range lan.Profiles() {
		for _, bits := range []int{0, 1, 64, 1500, 1 << 16} {
			m := timed.Profile{P: p, Bits: bits}
			priced := m.Price()
			var pm timed.LatencyModel = &priced
			d, delta := m.Params()
			if pd, pdelta := pm.Params(); pd != d || pdelta != delta {
				t.Errorf("%s/%d: priced params (%g, %g), want (%g, %g)", p.Name, bits, pd, pdelta, d, delta)
			}
			for _, kind := range []sim.MsgKind{sim.Data, sim.Control} {
				for r := sim.Round(1); r <= 3; r++ {
					if got, want := pm.Latency(1, 2, r, kind), m.Latency(1, 2, r, kind); got != want {
						t.Errorf("%s/%d: priced %s latency %g, want %g", p.Name, bits, kind, got, want)
					}
				}
			}
		}
	}
}

func TestTraceRecordsTimedEvents(t *testing.T) {
	log := trace.New()
	procs, _ := crwSystem(3)
	eng, err := timed.New(timed.Config{Model: sim.ModelExtended, Trace: log},
		procs, adversary.CoordinatorKiller{F: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out := log.String()
	for _, want := range []string{"send", "deliver", "decide", "crash", "t="} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript lacks %q:\n%s", want, out)
		}
	}
}

// TestConstructorValidation pins what only the timed engine validates: the
// latency model's parameters, and one Run per job. The validation every
// engine shares is TestConcurrentEngineContract's (internal/harness).
func TestConstructorValidation(t *testing.T) {
	procs, _ := crwSystem(3)
	if _, err := timed.New(timed.Config{Latency: timed.Fixed{D: 0}}, procs, adversary.None{}); err == nil {
		t.Error("accepted non-positive D")
	}
	if _, err := timed.New(timed.Config{Latency: timed.Fixed{D: 1, Delta: -0.1}}, procs, adversary.None{}); err == nil {
		t.Error("accepted negative δ")
	}
	eng, err := timed.New(timed.Config{}, procs, adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Error("second Run on a single-use engine did not error")
	}
}

// TestJitterLatencyIsPure pins the property every latency model must have:
// repeated sampling of the same message yields the same latency, regardless
// of order or interleaving.
func TestJitterLatencyIsPure(t *testing.T) {
	m := timed.Jitter{D: 1, Delta: 0.1, Floor: 0.1, Spread: 0.8, Seed: 99}
	a := m.Latency(3, 5, 2, sim.Data)
	_ = m.Latency(1, 2, 1, sim.Control) // interleave another sample
	if b := m.Latency(3, 5, 2, sim.Data); a != b {
		t.Errorf("latency not pure: %g then %g", float64(a), float64(b))
	}
	if c := m.Latency(5, 3, 2, sim.Data); c == a {
		t.Log("note: symmetric pair hashed equal (allowed, just unlikely)")
	}
	lo, _ := m.Params()
	for from := sim.ProcID(1); from <= 8; from++ {
		for to := sim.ProcID(1); to <= 8; to++ {
			l := m.Latency(from, to, 1, sim.Data)
			if l < m.Floor || l >= m.Floor+m.Spread {
				t.Errorf("latency %g outside [floor, floor+spread)", float64(l))
			}
			_ = lo
		}
	}
}
