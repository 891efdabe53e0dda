package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// TestEngineResetMatchesFreshEngine checks that a reused engine produces
// bit-identical results to a freshly constructed one, across different
// scenarios and process counts (including shrinking and growing n, which
// exercises the buffer-reuse paths).
func TestEngineResetMatchesFreshEngine(t *testing.T) {
	scenarios := []struct {
		n   int
		adv sim.Adversary
	}{
		{4, adversary.None{}},
		{4, adversary.CoordinatorKiller{F: 2}},
		{7, adversary.CoordinatorKiller{F: 3, DeliverAllData: true, CtrlPrefix: adversary.CtrlAll}},
		{2, adversary.None{}},
		{4, adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
			2: {Round: 1, DeliverAllData: true, CtrlPrefix: 1},
		})},
	}
	reused, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended}, echoSystem(3, true, 2), adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reused.Run(); err != nil {
		t.Fatalf("priming run: %v", err)
	}
	for i, sc := range scenarios {
		if err := reused.Reset(echoSystem(sc.n, true, 2), sc.adv); err != nil {
			t.Fatalf("scenario %d: Reset: %v", i, err)
		}
		got, gotErr := reused.Run()

		fresh, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended}, echoSystem(sc.n, true, 2), sc.adv)
		if err != nil {
			t.Fatalf("scenario %d: NewEngine: %v", i, err)
		}
		want, wantErr := fresh.Run()

		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("scenario %d: reused err %v, fresh err %v", i, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scenario %d: reused result %+v, fresh result %+v", i, got, want)
		}
	}
}

// TestEngineResetRederivesDefaultHorizon checks that an engine built with
// the zero-value (defaulted) horizon re-derives n+2 when Reset changes n.
func TestEngineResetRederivesDefaultHorizon(t *testing.T) {
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic}, echoSystem(2, false, 10), adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	// decideAt 10 > horizon: the run must stop at horizon n+2 with ErrNoProgress.
	res, runErr := eng.Run()
	if runErr == nil || res.Rounds != 4 {
		t.Fatalf("n=2: rounds %d err %v, want horizon 4 and ErrNoProgress", res.Rounds, runErr)
	}
	if err := eng.Reset(echoSystem(6, false, 10), adversary.None{}); err != nil {
		t.Fatal(err)
	}
	res, runErr = eng.Run()
	if runErr == nil || res.Rounds != 8 {
		t.Fatalf("n=6 after Reset: rounds %d err %v, want re-derived horizon 8 and ErrNoProgress",
			res.Rounds, runErr)
	}
}

// TestEngineResetValidation checks Reset rejects the same malformed inputs
// NewEngine does.
func TestEngineResetValidation(t *testing.T) {
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic}, echoSystem(2, false, 1), adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(nil, adversary.None{}); err == nil {
		t.Error("Reset accepted zero processes")
	}
	if err := eng.Reset(echoSystem(2, false, 1), nil); err == nil {
		t.Error("Reset accepted nil adversary")
	}
	bad := echoSystem(3, false, 1)
	bad[1], bad[2] = bad[2], bad[1]
	if err := eng.Reset(bad, adversary.None{}); err == nil {
		t.Error("Reset accepted non-contiguous process ids")
	}
	// The engine must still be usable after rejected Resets.
	if err := eng.Reset(echoSystem(2, false, 1), adversary.None{}); err != nil {
		t.Fatalf("valid Reset after rejections: %v", err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("run after recovery: %v", err)
	}
}

// benchProc is a minimal allocation-free process for measuring the engine's
// own hot-path cost: p1 broadcasts a preallocated data plan in round 1 and
// every process decides (and halts) in round 2.
type benchProc struct {
	id      sim.ProcID
	plan    sim.SendPlan // preallocated; empty except for p1 in round 1
	decided bool
}

func (p *benchProc) ID() sim.ProcID { return p.id }
func (p *benchProc) Send(r sim.Round) sim.SendPlan {
	if r == 1 {
		return p.plan
	}
	return sim.SendPlan{}
}
func (p *benchProc) Receive(r sim.Round, inbox []sim.Message) {
	if r == 2 {
		p.decided = true
	}
}
func (p *benchProc) Decided() (sim.Value, bool) { return 7, p.decided }
func (p *benchProc) Halted() bool               { return p.decided }

// TestEngineHappyPathAllocs pins the allocation count of the engine's
// no-trace hot path: with the engine reset between runs (as the explorer
// does) and processes that allocate nothing, a two-round broadcast run
// allocates nothing, its result included. The seed
// engine spent hundreds of allocations here on map bookkeeping, eager trace
// strings and delivery masks.
func TestEngineHappyPathAllocs(t *testing.T) {
	const n = 8
	procs := make([]sim.Process, n)
	bps := make([]*benchProc, n)
	for i := range procs {
		bp := &benchProc{id: sim.ProcID(i + 1)}
		if i == 0 {
			for j := 2; j <= n; j++ {
				bp.plan.Data = append(bp.plan.Data,
					sim.Outgoing{To: sim.ProcID(j), Payload: &sim.Est{V: 7, B: 64}})
			}
			bp.plan.Control = make([]sim.ProcID, 0, n-1)
			for j := n; j >= 2; j-- {
				bp.plan.Control = append(bp.plan.Control, sim.ProcID(j))
			}
		}
		bps[i] = bp
		procs[i] = bp
	}
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended, Horizon: 4}, procs, adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		for _, bp := range bps {
			bp.decided = false
		}
		if err := eng.Reset(procs, adversary.None{}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up inbox buffers
	allocs := testing.AllocsPerRun(200, run)
	// The result and its Procs are the engine's own, rewritten per run:
	// exact, nothing map-shaped is left to vary.
	const maxAllocs = 0
	if allocs > maxAllocs {
		t.Errorf("engine happy path allocates %.1f allocs/run, want <= %d", allocs, maxAllocs)
	}
}

// TestInboxGrowthOneSlabPerDoubling pins the kernel's inbox growth: when
// every process sends data and control to every other one, each inbox must
// hold 2(n−1) messages, and a fresh engine grows all n inboxes together,
// one slab per doubling of the seed capacity 4 — twice at n=8 (to 16), five
// times at n=64 (to 128) — rather than each inbox on its own. The
// difference of the two runs' counts cancels the engine's construction,
// which does not depend on n. Every message must reach its inbox through
// the re-carves.
func TestInboxGrowthOneSlabPerDoubling(t *testing.T) {
	allocs := func(n int) float64 {
		procs := make([]sim.Process, n)
		bps := make([]*benchProc, n)
		for i := range procs {
			bp := &benchProc{id: sim.ProcID(i + 1)}
			for j := 1; j <= n; j++ {
				if j != i+1 {
					bp.plan.Data = append(bp.plan.Data, sim.Outgoing{To: sim.ProcID(j), Payload: &sim.Est{V: 7, B: 64}})
					bp.plan.Control = append(bp.plan.Control, sim.ProcID(j))
				}
			}
			bps[i], procs[i] = bp, bp
		}
		return testing.AllocsPerRun(20, func() {
			for _, bp := range bps {
				bp.decided = false
			}
			eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended, Horizon: 4}, procs, adversary.None{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want := n * (n - 1); res.Ledger.DeliveredData != want || res.Ledger.DeliveredCtrl != want {
				t.Fatalf("n=%d: delivered %d data and %d control messages, want %d of each",
					n, res.Ledger.DeliveredData, res.Ledger.DeliveredCtrl, want)
			}
		})
	}
	if got := allocs(64) - allocs(8); got != 3 {
		t.Errorf("a fresh engine's run at n=64 allocates %v more times than at n=8, want 3 (one slab per doubling)", got)
	}
}
