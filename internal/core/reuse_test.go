package core_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

// resetCase is one instance of the reuse sequence: a size, the protocol
// options and the crash schedule it runs under.
type resetCase struct {
	n    int
	opts core.Options
	adv  func() sim.Adversary
}

// resetCases walks one System through n = 8, 3, 16, 8: it grows, shrinks
// below what it holds, grows past it and comes back, under the faithful
// algorithm and both ablations.
var resetCases = []resetCase{
	{8, core.Options{}, func() sim.Adversary { return adversary.CoordinatorKiller{F: 2} }},
	{3, core.Options{CommitAsData: true}, func() sim.Adversary {
		return adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{1: {Round: 1, DataMask: []bool{false, true}}})
	}},
	{16, core.Options{Order: core.OrderAscending, Bits: 16}, func() sim.Adversary {
		return adversary.CoordinatorKiller{F: 3, DeliverAllData: true, CtrlPrefix: 2}
	}},
	{8, core.Options{}, func() sim.Adversary { return adversary.None{} }},
}

// TestSystemResetMatchesFresh runs every case of resetCases on one reused
// System, twice over, and on a fresh NewSystem: the processes a Reset
// returns must equal fresh ones field for field, and their runs must give
// equal results. Every run ends with processes decided and halted, and a
// violation is planted after each run, so state a Reset failed to clear
// would show.
func TestSystemResetMatchesFresh(t *testing.T) {
	var sys core.System
	// Twice through: the second pass also resets to the size the last
	// instance had, as a service session does every slot.
	for i, c := range append(resetCases, resetCases...) {
		props := make([]sim.Value, c.n)
		for j := range props {
			props[j] = sim.Value(1000*i + 10*c.n - j)
		}
		fresh := core.NewSystem(props, c.opts)
		procs := sys.Reset(props, c.opts)
		if !reflect.DeepEqual(procs, fresh) {
			t.Fatalf("case %d (n=%d): reset processes differ from fresh ones", i, c.n)
		}
		want := runProcs(t, fresh, c.opts, c.adv())
		got := runProcs(t, procs, c.opts, c.adv())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (n=%d): reused run differs from fresh run:\n%+v\n%+v", i, c.n, got, want)
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
		p1 := procs[0].(*core.Protocol)
		p1.Receive(2, nil) // p1 past its own round: line 9
		if !p1.Violated() {
			t.Fatalf("case %d: planting the line-9 violation failed", i)
		}
	}
}

// TestSystemResetAllocsAtSeenSize pins that a Reset to a size and plan the
// System already holds allocates nothing.
func TestSystemResetAllocsAtSeenSize(t *testing.T) {
	var sys core.System
	for _, c := range resetCases {
		sys.Reset(make([]sim.Value, c.n), c.opts)
	}
	for _, c := range resetCases {
		props := make([]sim.Value, c.n)
		if a := testing.AllocsPerRun(50, func() { sys.Reset(props, c.opts) }); a != 0 {
			t.Errorf("Reset at n=%d %+v allocates %.0f, want 0", c.n, c.opts, a)
		}
	}
}
