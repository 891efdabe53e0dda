package adversary

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

// copyingOutcome is CrashPlan.outcome as it was before the shared mask
// tables: every crash copies a fresh mask. It stays here as the reference the
// sharing implementation must match.
func copyingOutcome(cp CrashPlan, plan sim.SendPlan) sim.CrashOutcome {
	mask := make([]bool, len(plan.Data))
	switch {
	case cp.DataMask != nil:
		copy(mask, cp.DataMask)
	case cp.DeliverAllData:
		for i := range mask {
			mask[i] = true
		}
	}
	prefix := cp.CtrlPrefix
	if prefix == CtrlAll || prefix > len(plan.Control) {
		prefix = len(plan.Control)
	}
	if prefix < 0 {
		prefix = 0
	}
	return sim.CrashOutcome{DataDelivered: mask, CtrlPrefix: prefix}
}

// sendPlan builds a plan with k data messages and c control destinations.
func sendPlan(k, c int) sim.SendPlan {
	var p sim.SendPlan
	for i := 0; i < k; i++ {
		p.Data = append(p.Data, sim.Outgoing{To: sim.ProcID(i + 2), Payload: &sim.Est{V: 1, B: 8}})
	}
	for i := 0; i < c; i++ {
		p.Control = append(p.Control, sim.ProcID(c-i+1))
	}
	return p
}

// TestOutcomeMasksMatchCopyingReference checks CrashPlan.outcome against the
// copying reference on random plans: DataMask nil or shorter than, as long
// as or longer than the plan, either DeliverAllData, and every control
// prefix from below zero past the sequence length, CtrlAll included. The
// returned mask must be capped at its length, and producing it must leave
// the scripted DataMask untouched.
func TestOutcomeMasksMatchCopyingReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k, c := rng.Intn(150), rng.Intn(6)
		plan := sendPlan(k, c)
		cp := CrashPlan{Round: 1, DeliverAllData: rng.Intn(2) == 0}
		switch rng.Intn(4) {
		case 1:
			cp.DataMask = make([]bool, rng.Intn(k+1)) // at most k: below or equal
		case 2:
			cp.DataMask = make([]bool, k+rng.Intn(4)) // at least k: equal or above
		case 3:
			cp.DataMask = []bool{} // non-nil and empty
		}
		for i := range cp.DataMask {
			cp.DataMask[i] = rng.Intn(2) == 0
		}
		script := slices.Clone(cp.DataMask)
		for prefix := -2; prefix <= c+2; prefix++ {
			cp.CtrlPrefix = prefix
			if prefix == -2 {
				cp.CtrlPrefix = CtrlAll
			}
			got, want := cp.outcome(plan), copyingOutcome(cp, plan)
			if !slices.Equal(got.DataDelivered, want.DataDelivered) || got.CtrlPrefix != want.CtrlPrefix {
				t.Logf("seed %d, k=%d c=%d %+v: outcome %+v, reference %+v", seed, k, c, cp, got, want)
				return false
			}
			if cap(got.DataDelivered) != len(got.DataDelivered) {
				t.Logf("seed %d: mask of length %d has capacity %d", seed, len(got.DataDelivered), cap(got.DataDelivered))
				return false
			}
		}
		if !slices.Equal(cp.DataMask, script) {
			t.Logf("seed %d: scripted mask changed from %v to %v", seed, script, cp.DataMask)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestOutcomeMasksAllocateNothing pins the shared paths at zero allocations:
// all-or-nothing delivery views an immutable table, and a DataMask covering
// the plan is handed out as a view of itself. Only a short DataMask pays
// for its padded copy.
func TestOutcomeMasksAllocateNothing(t *testing.T) {
	plan := sendPlan(40, 40)
	cases := []struct {
		name string
		cp   CrashPlan
		want float64
	}{
		{"deliver-all", CrashPlan{DeliverAllData: true, CtrlPrefix: CtrlAll}, 0},
		{"deliver-none", CrashPlan{}, 0},
		{"mask-covers", CrashPlan{DataMask: make([]bool, 41)}, 0},
		{"mask-short", CrashPlan{DataMask: make([]bool, 3)}, 1},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			if out := c.cp.outcome(plan); len(out.DataDelivered) != len(plan.Data) {
				t.Fatalf("%s: mask length %d, want %d", c.name, len(out.DataDelivered), len(plan.Data))
			}
		})
		if allocs != c.want {
			t.Errorf("%s: outcome allocates %.0f, want %.0f", c.name, allocs, c.want)
		}
	}
}

// TestOutcomeMasksConcurrentGrowth has several goroutines grow and read the
// shared mask tables at once, as lockstep workers and sweep workers do:
// every view must hold its constant, whichever published table it came
// from.
func TestOutcomeMasksConcurrentGrowth(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g; k < 3000; k += 61 {
				for _, all := range []bool{false, true} {
					out := CrashPlan{DeliverAllData: all}.outcome(sendPlan(k, 0))
					if len(out.DataDelivered) != k || slices.Contains(out.DataDelivered, !all) {
						t.Errorf("k=%d all=%t: mask %v", k, all, out.DataDelivered)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestChooserMasksOwnRegions consults one chooser-driven tree as a run does
// — every process crashing or omitting, plans of growing width, so the
// arena grows mid-run — and requires every mask handed out to keep the
// value it had when handed out until the run ends: no two faults of a run
// share a region, growth included. After Reset a warmed tree allocates
// nothing for the same run.
func TestChooserMasksOwnRegions(t *testing.T) {
	for _, omit := range []bool{false, true} {
		src := &Seeded{CrashProb: 1, SendOmitProb: 1, RecvOmitProb: 1}
		tree := NewFromChooserWithOmissions(src, 0, 0, 0, 9)
		if !omit {
			tree.T = 1 << 30
		}
		var plans [5][10]sim.SendPlan
		for r := range plans {
			for p := range plans[r] {
				plans[r][p] = sendPlan(r*p%11, p%4)
			}
		}
		type handed struct{ mask, snap []bool }
		var masks []handed
		run := func(record bool) {
			src.Stream = rng.New(7)
			tree.Reset()
			for r := sim.Round(1); r <= 4; r++ {
				for p := sim.ProcID(1); p <= 9; p++ {
					pl := plans[r][p]
					var got [][]bool
					if omit {
						om := tree.Omits(p, r, pl)
						got = [][]bool{om.Data, om.Ctrl, om.Recv}
					} else {
						_, out := tree.Crashes(p, r, pl)
						got = [][]bool{out.DataDelivered}
					}
					if record {
						for _, m := range got {
							masks = append(masks, handed{m, slices.Clone(m)})
						}
					}
				}
			}
		}
		run(true)
		if len(masks) < 30 {
			t.Fatalf("omit=%t: only %d masks handed out", omit, len(masks))
		}
		for i, h := range masks {
			if !slices.Equal(h.mask, h.snap) {
				t.Fatalf("omit=%t: mask %d was rewritten within its run: %v, handed out as %v", omit, i, h.mask, h.snap)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { run(false) }); allocs != 0 {
			t.Errorf("omit=%t: a reset tree allocates %.1f per run, want 0", omit, allocs)
		}
	}
}
