package adversary_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/rng"
	"repro/internal/sim"
)

// These tests pin the one fault-choice tree: the seeded chooser walks the
// crash tree with exactly the draws the former seeded random adversary made,
// the omission tree holds each legal (process, round) outcome as exactly one
// leaf, and no width clamp hides a message position from it.

// refRandom is the seeded random crash adversary NewRandom used to be, kept
// as the reference the seeded tree must reproduce draw for draw.
type refRandom struct {
	rng        rng.Stream
	crashProb  float64
	maxCrashes int
	crashes    int
}

func (a *refRandom) Crashes(_ sim.ProcID, _ sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if a.crashes >= a.maxCrashes || a.rng.Float64() >= a.crashProb {
		return false, sim.CrashOutcome{}
	}
	a.crashes++
	mask := make([]bool, len(plan.Data))
	if len(plan.Control) > 0 && a.rng.Intn(2) == 1 {
		for i := range mask {
			mask[i] = true
		}
		return true, sim.CrashOutcome{DataDelivered: mask, CtrlPrefix: a.rng.Intn(len(plan.Control) + 1)}
	}
	for i := range mask {
		mask[i] = a.rng.Intn(2) == 1
	}
	return true, sim.CrashOutcome{DataDelivered: mask}
}

// TestSeededTreeMatchesRandomReference consults NewRandom and the reference
// on the same (process, round, plan) sequence, plan shapes varying, and
// requires identical answers: seeded crash runs stay byte-identical.
func TestSeededTreeMatchesRandomReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		for _, p := range []float64{0, 0.1, 0.5, 1} {
			got := adversary.NewRandom(seed, p, 4)
			ref := &refRandom{rng: rng.New(seed), crashProb: p, maxCrashes: 4}
			for i := 0; i < 60; i++ {
				pl := plan(i%5, (i/3)%4)
				c1, o1 := got.Crashes(sim.ProcID(i%6+1), sim.Round(i/6+1), pl)
				c2, o2 := ref.Crashes(sim.ProcID(i%6+1), sim.Round(i/6+1), pl)
				if c1 != c2 || fmt.Sprint(o1) != fmt.Sprint(o2) {
					t.Fatalf("seed %d, p=%g, consult %d: %v %+v, reference %v %+v", seed, p, i, c1, o1, c2, o2)
				}
			}
		}
	}
}

// leaves enumerates every outcome the omission tree gives one (process,
// round) consult under the given event budget, in a 3-process system.
func leaves(t *testing.T, budget int, pl sim.SendPlan) []string {
	t.Helper()
	var out []string
	bt := check.NewBacktracker()
	for {
		a := adversary.NewFromChooserWithOmissions(bt, 0, 0, budget, 3)
		out = append(out, fmt.Sprint(a.Omits(2, 1, pl)))
		if !bt.Next() {
			return out
		}
	}
}

// TestOmissionTreeLeaves counts the leaves of one consult with four send
// positions and two other senders. Budget 1 holds the fault-free leaf, the
// 15 non-empty send subsets and the 3 non-empty receive subsets; budget 2
// adds the 15·3 leaves that send-omit and receive-omit in the same round.
// No two leaves give the same omission.
func TestOmissionTreeLeaves(t *testing.T) {
	pl := plan(2, 2)
	for _, tc := range []struct{ budget, want int }{{1, 1 + 15 + 3}, {2, 1 + 15 + 3 + 15*3}} {
		got := leaves(t, tc.budget, pl)
		seen := map[string]bool{}
		for _, l := range got {
			if seen[l] {
				t.Errorf("budget %d: outcome %s is two leaves", tc.budget, l)
			}
			seen[l] = true
		}
		if len(got) != tc.want {
			t.Errorf("budget %d: %d leaves, want %d", tc.budget, len(got), tc.want)
		}
	}
}

// scripted is a chooser that opens every gate and drops exactly the subset
// positions it names, counted per subset draw.
type scripted struct {
	drop map[int]bool
	pos  int
}

func (s *scripted) Choose(d adversary.Decision, n int) int {
	switch d {
	case adversary.SendOmitGate, adversary.RecvOmitGate:
		s.pos = 0
		return 1
	case adversary.SubsetBit:
		s.pos++
		if s.drop[s.pos-1] {
			return 1
		}
	}
	return 0
}

// TestOmissionTreeReachesEveryPosition drops one message at a send position
// and one sender at a receive position beyond 16 in a 24-process system:
// the tree draws its subsets position by position, so no width clamp cuts
// the fuzzer's reach at large n.
func TestOmissionTreeReachesEveryPosition(t *testing.T) {
	const n = 24
	a := adversary.NewFromChooserWithOmissions(&scripted{drop: map[int]bool{20: true}}, 0, 0, 2, n)
	pl := plan(n-1, n-1)
	om := a.Omits(1, 1, pl)
	if !om.ValidFor(pl) {
		t.Fatalf("omission %+v invalid for the plan", om)
	}
	for i, d := range om.Data {
		if d == (i == 20) {
			t.Errorf("send position %d delivered = %v", i, d)
		}
	}
	for i, d := range om.Ctrl {
		if !d {
			t.Errorf("control position %d dropped", i)
		}
	}
	// Receive positions skip the process itself (p1), so the 21st subset
	// position is sender p22.
	for q, d := range om.Recv {
		if d == (q+1 == 22) {
			t.Errorf("sender p%d delivered = %v", q+1, d)
		}
	}
}
