package adversary_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// plan builds a send plan with nd data messages and nc control destinations.
func plan(nd, nc int) sim.SendPlan {
	var p sim.SendPlan
	for i := 0; i < nd; i++ {
		p.Data = append(p.Data, sim.Outgoing{To: sim.ProcID(i + 2), Payload: &sim.Est{V: 1, B: 8}})
	}
	for i := 0; i < nc; i++ {
		p.Control = append(p.Control, sim.ProcID(nc-i+1))
	}
	return p
}

func TestNoneNeverCrashes(t *testing.T) {
	var a adversary.None
	for r := sim.Round(1); r <= 10; r++ {
		for p := sim.ProcID(1); p <= 8; p++ {
			if crash, _ := a.Crashes(p, r, plan(3, 3)); crash {
				t.Fatalf("None crashed p%d at round %d", p, r)
			}
		}
	}
}

func TestScriptMatchesRoundAndProcess(t *testing.T) {
	s := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		2: {Round: 3, DeliverAllData: true, CtrlPrefix: 1},
	})
	if crash, _ := s.Crashes(2, 2, plan(2, 2)); crash {
		t.Error("crashed at wrong round")
	}
	if crash, _ := s.Crashes(1, 3, plan(2, 2)); crash {
		t.Error("crashed wrong process")
	}
	crash, out := s.Crashes(2, 3, plan(2, 2))
	if !crash {
		t.Fatal("scripted crash did not fire")
	}
	if !out.DataDelivered[0] || !out.DataDelivered[1] || out.CtrlPrefix != 1 {
		t.Errorf("outcome = %+v, want full data + prefix 1", out)
	}
	if !out.ValidFor(plan(2, 2)) {
		t.Error("scripted outcome invalid")
	}
}

func TestScriptCtrlAllClamps(t *testing.T) {
	s := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 1, DeliverAllData: true, CtrlPrefix: adversary.CtrlAll},
	})
	_, out := s.Crashes(1, 1, plan(1, 4))
	if out.CtrlPrefix != 4 {
		t.Errorf("CtrlAll prefix = %d, want 4", out.CtrlPrefix)
	}
	// Oversized explicit prefixes clamp too.
	s2 := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 1, DeliverAllData: true, CtrlPrefix: 99},
	})
	_, out = s2.Crashes(1, 1, plan(1, 4))
	if out.CtrlPrefix != 4 {
		t.Errorf("oversized prefix = %d, want clamped 4", out.CtrlPrefix)
	}
}

func TestScriptDataMaskPositional(t *testing.T) {
	s := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 1, DataMask: []bool{true}},
	})
	_, out := s.Crashes(1, 1, plan(3, 0))
	if !out.DataDelivered[0] || out.DataDelivered[1] || out.DataDelivered[2] {
		t.Errorf("mask = %v, want [true false false]", out.DataDelivered)
	}
}

func TestCoordinatorKillerTargetsCoordinators(t *testing.T) {
	k := adversary.CoordinatorKiller{F: 2}
	if crash, _ := k.Crashes(1, 1, plan(3, 3)); !crash {
		t.Error("p1 not crashed in round 1")
	}
	if crash, _ := k.Crashes(2, 2, plan(3, 3)); !crash {
		t.Error("p2 not crashed in round 2")
	}
	if crash, _ := k.Crashes(3, 3, plan(3, 3)); crash {
		t.Error("p3 crashed beyond F")
	}
	if crash, _ := k.Crashes(2, 1, plan(3, 3)); crash {
		t.Error("non-coordinator crashed")
	}
}

func TestRandomRespectsBudgetAndValidity(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := adversary.NewRandom(seed, 0.9, 3)
		crashes := 0
		for r := sim.Round(1); r <= 10; r++ {
			for p := sim.ProcID(1); p <= 8; p++ {
				pl := plan(4, 4)
				crash, out := a.Crashes(p, r, pl)
				if !crash {
					continue
				}
				crashes++
				if !out.ValidFor(pl) {
					t.Fatalf("seed %d: invalid outcome %+v", seed, out)
				}
			}
		}
		if crashes > 3 {
			t.Errorf("seed %d: %d crashes exceed budget 3", seed, crashes)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	results := func(seed int64) []bool {
		a := adversary.NewRandom(seed, 0.5, 5)
		var out []bool
		for i := 0; i < 50; i++ {
			crash, _ := a.Crashes(sim.ProcID(i%5+1), sim.Round(i/5+1), plan(2, 2))
			out = append(out, crash)
		}
		return out
	}
	a, b := results(7), results(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
}

// seqChooser replays a fixed sequence of choices.
type seqChooser struct {
	vals []int
	pos  int
}

func (c *seqChooser) Choose(_ adversary.Decision, n int) int {
	if c.pos >= len(c.vals) {
		return 0
	}
	v := c.vals[c.pos] % n
	c.pos++
	return v
}

func TestFromChooserOutcomesAlwaysValid(t *testing.T) {
	// Whatever the chooser picks, the produced outcome must be legal for the
	// plan (the model constraint: control prefix > 0 implies full data).
	for seed := 0; seed < 200; seed++ {
		ch := &seqChooser{vals: []int{1, seed % 2, seed % 3, seed % 5, seed % 7, 1, 0, 1}}
		a := adversary.NewFromChooser(ch, 2, 5)
		pl := plan(3, 3)
		crash, out := a.Crashes(1, 1, pl)
		if crash && !out.ValidFor(pl) {
			t.Fatalf("seed %d: invalid outcome %+v", seed, out)
		}
	}
}

func TestFromChooserRespectsBudgetAndHorizon(t *testing.T) {
	ch := &seqChooser{vals: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}}
	a := adversary.NewFromChooser(ch, 1, 2)
	if crash, _ := a.Crashes(1, 3, plan(0, 0)); crash {
		t.Error("crashed beyond MaxCrashRound")
	}
	if crash, _ := a.Crashes(1, 1, plan(0, 0)); !crash {
		t.Error("first crash did not fire")
	}
	if crash, _ := a.Crashes(2, 1, plan(0, 0)); crash {
		t.Error("crashed beyond budget")
	}
}
