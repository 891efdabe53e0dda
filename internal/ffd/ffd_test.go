package ffd_test

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/ffd"
	"repro/internal/sim"
)

func props(n int) []sim.Value {
	vs := make([]sim.Value, n)
	for i := range vs {
		vs[i] = sim.Value(100 + i)
	}
	return vs
}

func approx(a, b des.Time) bool { return math.Abs(float64(a-b)) < 1e-9 }

func TestFailureFreeDecidesAtD(t *testing.T) {
	cfg := ffd.Config{N: 5, D: 1.0, Dd: 0.05}
	res, err := ffd.Run(cfg, props(5), ffd.KillFirstF{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashed) != 0 {
		t.Fatalf("faults = %d", len(res.Crashed))
	}
	// p1 decides at its broadcast (time 0); everyone else at D.
	if !approx(res.DecideTime[1], 0) {
		t.Errorf("p1 decided at %v, want 0", res.DecideTime[1])
	}
	for id := sim.ProcID(2); id <= 5; id++ {
		if !approx(res.DecideTime[id], cfg.D) {
			t.Errorf("p%d decided at %v, want %v", id, res.DecideTime[id], cfg.D)
		}
		if res.Decisions[id] != 100 {
			t.Errorf("p%d decided %d, want 100", id, int64(res.Decisions[id]))
		}
	}
	if got, want := res.MaxDecideTime(), cfg.D; !approx(got, want) {
		t.Errorf("max decide time = %v, want %v", got, want)
	}
}

func TestWorstCaseDecideTimeDPlusFd(t *testing.T) {
	// The first f coordinators crash at their takeover broadcasts, delivering
	// nothing: the correct coordinator p_{f+1} takes over at f·d and everyone
	// decides by D + f·d, the bound of [1].
	cfg := ffd.Config{N: 8, D: 1.0, Dd: 0.05}
	for f := 0; f <= 5; f++ {
		res, err := ffd.Run(cfg, props(8), ffd.KillFirstF{F: f})
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if len(res.Crashed) != f {
			t.Fatalf("f=%d: faults = %d", f, len(res.Crashed))
		}
		want := ffd.WorstCaseDecideTime(cfg, f)
		if got := res.MaxDecideTime(); !approx(got, want) {
			t.Errorf("f=%d: max decide time = %v, want D+f·d = %v", f, got, want)
		}
		// All decisions carry the surviving coordinator's proposal, and no two
		// processes decide differently.
		for id, v := range res.Decisions {
			if v != sim.Value(100+f) {
				t.Errorf("f=%d: p%d decided %d, want %d", f, id, int64(v), 100+f)
			}
		}
	}
}

func TestPartialBroadcastDoesNotBreakAgreement(t *testing.T) {
	// p1 crashes mid-broadcast delivering only to p3. Because d < D, p3
	// suspects p1 before the message arrives and must not decide it; the next
	// coordinator's value wins. Uniform agreement holds.
	cfg := ffd.Config{N: 4, D: 1.0, Dd: 0.1}
	res, err := ffd.Run(cfg, props(4),
		ffd.KillFirstF{F: 1, DeliverTo: map[sim.ProcID]bool{3: true}})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[sim.Value]bool{}
	for _, v := range res.Decisions {
		distinct[v] = true
	}
	if len(distinct) != 1 {
		t.Fatalf("uniform agreement violated: %v", res.Decisions)
	}
	for id, v := range res.Decisions {
		if v != 101 { // p2's proposal
			t.Errorf("p%d decided %d, want 101", id, int64(v))
		}
	}
	// p3 received p1's dying message but decided only on p2's broadcast at
	// d + D.
	if want := cfg.Dd + cfg.D; !approx(res.DecideTime[3], want) {
		t.Errorf("p3 decided at %v, want %v", res.DecideTime[3], want)
	}
}

func TestDyingBroadcastLosesToFastDetection(t *testing.T) {
	// p1 delivers its dying broadcast to everyone, but the messages take D
	// to arrive while the crash is detected within d << D: p2 takes over at
	// time d — long before p1's value reaches it — and broadcasts its own
	// proposal, which wins. This is the defining timing behaviour of the
	// fast-failure-detector model: takeovers outpace in-flight data. Uniform
	// agreement holds throughout (late arrivals from suspected senders are
	// adopted as estimates but never decided).
	cfg := ffd.Config{N: 4, D: 1.0, Dd: 0.1}
	res, err := ffd.Run(cfg, props(4),
		ffd.KillFirstF{F: 1, DeliverTo: map[sim.ProcID]bool{2: true, 3: true, 4: true}})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range res.Decisions {
		if v != 101 {
			t.Errorf("p%d decided %d, want p2's value 101", id, int64(v))
		}
	}
	// p2 decides at its takeover broadcast (time d); the others at d + D.
	if !approx(res.DecideTime[2], cfg.Dd) {
		t.Errorf("p2 decided at %v, want %v", res.DecideTime[2], cfg.Dd)
	}
	for _, id := range []sim.ProcID{3, 4} {
		if want := cfg.Dd + cfg.D; !approx(res.DecideTime[id], want) {
			t.Errorf("p%d decided at %v, want %v", id, res.DecideTime[id], want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (ffd.Config{N: 3, D: 1, Dd: 1}).Validate(); err == nil {
		t.Error("accepted d == D")
	}
	if err := (ffd.Config{N: 3, D: 1, Dd: 0}).Validate(); err == nil {
		t.Error("accepted d == 0")
	}
	if err := (ffd.Config{N: 0, D: 1, Dd: 0.1}).Validate(); err == nil {
		t.Error("accepted n == 0")
	}
	if _, err := ffd.Run(ffd.Config{N: 3, D: 1, Dd: 0.1}, props(2), ffd.KillFirstF{}); err == nil {
		t.Error("accepted proposal/process count mismatch")
	}
}

func TestComparisonAgainstExtendedModel(t *testing.T) {
	// Experiment E7's core claim: for small d and δ both models decide fast;
	// FFD time D+f·d vs extended-model time (f+1)(D+δ). With d = δ the FFD
	// model wins for f >= 1 (it pays d per crash instead of D+δ).
	cfg := ffd.Config{N: 8, D: 1.0, Dd: 0.05}
	delta := des.Time(0.05)
	for f := 1; f <= 5; f++ {
		ffdTime := ffd.WorstCaseDecideTime(cfg, f)
		extTime := des.Time(f+1) * (cfg.D + delta)
		if ffdTime >= extTime {
			t.Errorf("f=%d: FFD %v should beat extended %v at equal overhead", f, ffdTime, extTime)
		}
	}
	// At f=0 both models decide within one message delay (+δ for extended).
	if ffdTime := ffd.WorstCaseDecideTime(cfg, 0); !approx(ffdTime, cfg.D) {
		t.Errorf("f=0: FFD time %v, want D", ffdTime)
	}
}

func TestExhaustiveDeliverySubsets(t *testing.T) {
	// Sweep every delivery subset of every single-crash and double-crash
	// schedule for a small system: uniform agreement and termination must
	// hold in all of them. This is the FFD analog of the synchronous
	// explorer's subset enumeration.
	cfg := ffd.Config{N: 4, D: 1.0, Dd: 0.1}
	ids := []sim.ProcID{1, 2, 3, 4}
	subsets := func(exclude sim.ProcID) [][]sim.ProcID {
		var others []sim.ProcID
		for _, id := range ids {
			if id != exclude {
				others = append(others, id)
			}
		}
		var out [][]sim.ProcID
		for mask := 0; mask < 1<<len(others); mask++ {
			var s []sim.ProcID
			for i, id := range others {
				if mask&(1<<i) != 0 {
					s = append(s, id)
				}
			}
			out = append(out, s)
		}
		return out
	}
	toSet := func(s []sim.ProcID) map[sim.ProcID]bool {
		m := map[sim.ProcID]bool{}
		for _, id := range s {
			m[id] = true
		}
		return m
	}

	runs := 0
	for _, f := range []int{1, 2} {
		for _, s1 := range subsets(1) {
			sched := ffd.KillFirstF{F: f, DeliverTo: toSet(s1)}
			res, err := ffd.Run(cfg, props(4), sched)
			if err != nil {
				t.Fatalf("f=%d subset %v: %v", f, s1, err)
			}
			runs++
			distinct := map[sim.Value]bool{}
			for _, v := range res.Decisions {
				distinct[v] = true
			}
			if len(distinct) != 1 {
				t.Fatalf("f=%d subset %v: agreement violated: %v", f, s1, res.Decisions)
			}
			if got, bound := res.MaxDecideTime(), ffd.WorstCaseDecideTime(cfg, f); got > bound+1e-9 {
				t.Errorf("f=%d subset %v: decide time %v exceeds D+f·d = %v", f, s1, got, bound)
			}
		}
	}
	t.Logf("swept %d FFD delivery-subset schedules", runs)
}

func TestBroadcastAndMessageCounts(t *testing.T) {
	cfg := ffd.Config{N: 5, D: 1.0, Dd: 0.05}
	res, err := ffd.Run(cfg, props(5), ffd.KillFirstF{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Broadcasts != 1 {
		t.Errorf("broadcasts = %d, want 1", res.Broadcasts)
	}
	if res.Messages != 4 {
		t.Errorf("messages = %d, want 4", res.Messages)
	}
	if len(res.DecideTime) != 5 {
		t.Errorf("decide times = %v, want all 5 processes", res.DecideTime)
	}
}
