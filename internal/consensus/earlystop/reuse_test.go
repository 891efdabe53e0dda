package earlystop_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus/earlystop"
	"repro/internal/sim"
)

// resetCases walks one System through n = 8, 3, 16, 8 with different
// resilience t: it grows, shrinks below what it holds, grows past it and
// comes back.
var resetCases = []struct {
	n, t, b int
	adv     func() sim.Adversary
}{
	{8, 3, 64, func() sim.Adversary { return adversary.CoordinatorKiller{F: 2} }},
	{3, 1, 8, func() sim.Adversary { return adversary.None{} }},
	{16, 7, 16, func() sim.Adversary {
		return adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
			1: {Round: 1, DataMask: []bool{true, false, true}},
			5: {Round: 2},
		})
	}},
	{8, 7, 64, func() sim.Adversary { return adversary.NewRandom(4, 0.2, 5) }},
}

// TestSystemResetMatchesFresh runs every case of resetCases on one reused
// System, twice over, and on a fresh NewSystem: the processes a Reset
// returns must equal fresh ones field for field, and their runs must give
// equal results. Every run ends with processes decided and halted and their
// early flags and estimates moved, so state a Reset failed to clear would
// show.
func TestSystemResetMatchesFresh(t *testing.T) {
	var sys earlystop.System
	// Twice through: the second pass also resets to the size the last
	// instance had, as a service session does every slot.
	for i, c := range append(resetCases, resetCases...) {
		props := make([]sim.Value, c.n)
		for j := range props {
			props[j] = sim.Value(1000*i + 10*c.n - j)
		}
		fresh := earlystop.NewSystem(props, c.t, c.b)
		procs := sys.Reset(props, c.t, c.b)
		if !reflect.DeepEqual(procs, fresh) {
			t.Fatalf("case %d (n=%d, t=%d): reset processes differ from fresh ones", i, c.n, c.t)
		}
		cfg := sim.Config{Model: sim.ModelClassic, Horizon: sim.Round(c.t + 2)}
		var results [2]*sim.Result
		for k, ps := range [][]sim.Process{fresh, procs} {
			eng, err := sim.NewEngine(cfg, ps, c.adv())
			if err != nil {
				t.Fatal(err)
			}
			if results[k], err = eng.Run(); err != nil {
				t.Fatalf("case %d: Run: %v", i, err)
			}
		}
		if !reflect.DeepEqual(results[1], results[0]) {
			t.Fatalf("case %d (n=%d, t=%d): reused run differs from fresh run:\n%+v\n%+v", i, c.n, c.t, results[1], results[0])
		}
		halted := 0
		for _, p := range procs {
			if p.Halted() {
				halted++
			}
		}
		if halted == 0 {
			t.Fatalf("case %d (n=%d): no process halted; the run leaves no state to clear", i, c.n)
		}
	}
}

// TestSystemResetAllocsAtSeenSize pins that a Reset to a size the System
// already holds allocates nothing.
func TestSystemResetAllocsAtSeenSize(t *testing.T) {
	var sys earlystop.System
	for _, c := range resetCases {
		sys.Reset(make([]sim.Value, c.n), c.t, c.b)
	}
	for _, c := range resetCases {
		props := make([]sim.Value, c.n)
		if a := testing.AllocsPerRun(50, func() { sys.Reset(props, c.t, c.b) }); a != 0 {
			t.Errorf("Reset at n=%d allocates %.0f, want 0", c.n, a)
		}
	}
}
