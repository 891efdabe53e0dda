package earlystop_test

import (
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/consensus/earlystop"
	"repro/internal/sim"
)

func run(t *testing.T, proposals []sim.Value, tt int, adv sim.Adversary) *sim.Result {
	t.Helper()
	procs := earlystop.NewSystem(proposals, tt, 8)
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic, Horizon: sim.Round(tt + 2)}, procs, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestFailureFreeDecidesInTwoRounds(t *testing.T) {
	// With f=0 every process hears from all n in round 1, sets the early
	// flag, and decides during round 2 — the classic model's floor, one
	// round behind the paper's algorithm.
	props := []sim.Value{30, 10, 20, 40, 50}
	res := run(t, props, 4, adversary.None{})
	if got := res.MaxDecideRound(); got != 2 {
		t.Errorf("decide round = %d, want 2", got)
	}
	for id, v := range res.Decisions {
		if v != 10 {
			t.Errorf("p%d decided %d, want min 10", id, int64(v))
		}
	}
}

func TestBoundMinFPlus2TPlus1(t *testing.T) {
	const n = 7
	tt := n - 1
	for f := 0; f <= tt; f++ {
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = sim.Value(100 + i)
		}
		res := run(t, props, tt, adversary.CoordinatorKiller{F: f})
		if err := check.Consensus(props, res); err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if err := check.RoundBound(res, check.BoundClassic(tt)); err != nil {
			t.Errorf("f=%d: %v", f, err)
		}
		want := earlystop.RoundBound(res.Faults(), tt)
		if got := res.MaxDecideRound(); got > want {
			t.Errorf("f=%d: decide round %d exceeds min(f+2,t+1) = %d", f, got, want)
		}
	}
}

func TestRoundBoundHelper(t *testing.T) {
	cases := []struct{ f, t, want int }{
		{0, 5, 2}, {1, 5, 3}, {4, 5, 6}, {5, 5, 6}, {3, 3, 4},
	}
	for _, c := range cases {
		if got := earlystop.RoundBound(c.f, c.t); got != sim.Round(c.want) {
			t.Errorf("RoundBound(%d,%d) = %d, want %d", c.f, c.t, got, c.want)
		}
	}
}

func TestHiddenMinimumHandledUniformly(t *testing.T) {
	// The dangerous scenario for early deciders: a small value leaks to one
	// process before its holder crashes. Uniform agreement must hold no
	// matter who decides first. (This is exactly the scenario family that
	// makes uniform consensus require f+2 rounds in the classic model.)
	props := []sim.Value{1, 50, 60, 70}
	for mask := 0; mask < 8; mask++ {
		adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
			1: {Round: 1, DataMask: []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}},
		})
		res := run(t, props, 3, adv)
		if err := check.Consensus(props, res); err != nil {
			t.Errorf("mask %03b: %v", mask, err)
		}
	}
}

func TestEarlyFlagPropagates(t *testing.T) {
	// A process that receives a flagged message inherits the flag and
	// decides one round later, even if it witnessed too many crashes to set
	// the flag itself.
	props := []sim.Value{10, 20, 30, 40, 50}
	// p5 crashes silently in round 1: p1..p4 see one crash (n-heard = 1 >= 1
	// is false: 5-5... they hear 4+self? n - nb = 1 < 1 fails) — walk it:
	// nb = 4 (p1..p4), n-nb = 1, r=1: not early. Round 2: all hear 4 again,
	// n-nb = 1 < 2: early. Round 3: broadcast flag, decide. f=1: bound f+2=3. ✓
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		5: {Round: 1},
	})
	res := run(t, props, 4, adv)
	if err := check.Consensus(props, res); err != nil {
		t.Fatal(err)
	}
	if got := res.MaxDecideRound(); got != 3 {
		t.Errorf("decide round = %d, want 3 (= f+2)", got)
	}
}

func TestMessageBitsIncludeFlag(t *testing.T) {
	props := []sim.Value{1, 2, 3}
	procs := earlystop.NewSystem(props, 1, 16)
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic, Horizon: 4}, procs, adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each message carries est (16 bits) + early flag (1 bit) = 17 bits.
	if res.Counters.DataBits%17 != 0 {
		t.Errorf("data bits = %d, not a multiple of b+1 = 17", res.Counters.DataBits)
	}
}

func TestPropertyUniformAndBoundedUnderRandomFaults(t *testing.T) {
	prop := func(seedRaw, nRaw uint8) bool {
		n := int(nRaw%6) + 3
		tt := n - 1
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = sim.Value((int(seedRaw)*11 + i*3) % 40)
		}
		procs := earlystop.NewSystem(props, tt, 8)
		eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic, Horizon: sim.Round(tt + 2)},
			procs, adversary.NewRandom(int64(seedRaw), 0.3, tt))
		if err != nil {
			return false
		}
		res, err := eng.Run()
		if err != nil {
			return false
		}
		if check.Consensus(props, res) != nil {
			return false
		}
		return check.RoundBound(res, check.BoundClassic(tt)) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEstMsgPayload(t *testing.T) {
	m := earlystop.EstMsg{Est: 5, Early: true, B: 32}
	if m.Bits() != 33 {
		t.Errorf("Bits = %d, want 33", m.Bits())
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

// TestSendAllocsIndependentOfN pins the allocation-lean send path: a first
// Send costs one boxed payload shared by all n-1 messages plus the plan's
// backing array, and every later Send of the process only the box.
func TestSendAllocsIndependentOfN(t *testing.T) {
	const runs = 20
	sendAllocs := func(n int) (first, later float64) {
		fresh := make([]*earlystop.Protocol, runs+1) // AllocsPerRun adds a warm-up call
		for i := range fresh {
			fresh[i] = earlystop.New(1, n, n/2, 7, 0)
		}
		i := 0
		first = testing.AllocsPerRun(runs, func() {
			if plan := fresh[i].Send(1); len(plan.Data) != n-1 {
				t.Fatalf("n=%d: plan has %d data messages", n, len(plan.Data))
			}
			i++
		})
		later = testing.AllocsPerRun(runs, func() { fresh[0].Send(2) })
		return first, later
	}
	first8, later8 := sendAllocs(8)
	first64, later64 := sendAllocs(64)
	if first8 != first64 || first64 > 3 {
		t.Errorf("first Send allocates %.0f at n=8 and %.0f at n=64, want equal and <= 3", first8, first64)
	}
	if later8 != 1 || later64 != 1 {
		t.Errorf("later Sends allocate %.0f at n=8 and %.0f at n=64, want 1 (the boxed payload)", later8, later64)
	}
}
