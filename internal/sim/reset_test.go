package sim_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

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
