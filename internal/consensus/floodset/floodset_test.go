package floodset_test

import (
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/consensus/floodset"
	"repro/internal/sim"
)

func run(t *testing.T, proposals []sim.Value, tt int, adv sim.Adversary) *sim.Result {
	t.Helper()
	procs := floodset.NewSystem(proposals, tt, 8)
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

func TestDecidesMinAfterTPlus1Rounds(t *testing.T) {
	props := []sim.Value{30, 10, 20, 40}
	res := run(t, props, 2, adversary.None{})
	if res.Rounds != 3 {
		t.Errorf("rounds = %d, want t+1 = 3", res.Rounds)
	}
	for id, v := range res.Decisions() {
		if v != 10 {
			t.Errorf("p%d decided %d, want min 10", id, int64(v))
		}
		if res.Procs[id-1].DecideRound != 3 {
			t.Errorf("p%d decided at round %d, want 3", id, res.Procs[id-1].DecideRound)
		}
	}
}

func TestNoEarlyStoppingEvenFailureFree(t *testing.T) {
	// FloodSet cannot exploit f=0: it always runs t+1 rounds — this is the
	// baseline behaviour experiment E4 contrasts with early stopping.
	for tt := 1; tt <= 5; tt++ {
		props := []sim.Value{5, 4, 3, 2, 1, 6}
		res := run(t, props, tt, adversary.None{})
		if res.Rounds != sim.Round(tt+1) {
			t.Errorf("t=%d: rounds = %d, want %d", tt, res.Rounds, tt+1)
		}
	}
}

func TestPartialDeliveryStillUniform(t *testing.T) {
	// p1 holds the minimum and leaks it to a single process before dying;
	// flooding must spread it to everyone within t+1 rounds.
	props := []sim.Value{1, 50, 60, 70}
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 1, DataMask: []bool{true, false, false}}, // only p2 learns 1
	})
	res := run(t, props, 2, adv)
	if err := check.Consensus(props, res); err != nil {
		t.Fatal(err)
	}
	for id, v := range res.Decisions() {
		if v != 1 {
			t.Errorf("p%d decided %d, want 1", id, int64(v))
		}
	}
}

func TestValueHiddenFromEveryoneIsNotDecided(t *testing.T) {
	// p1 dies without leaking its minimum to anyone: the survivors must
	// agree on the minimum of the remaining values.
	props := []sim.Value{1, 50, 60, 70}
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 1}, // nothing escapes
	})
	res := run(t, props, 2, adv)
	if err := check.Consensus(props, res); err != nil {
		t.Fatal(err)
	}
	for id, v := range res.Decisions() {
		if v != 50 {
			t.Errorf("p%d decided %d, want 50", id, int64(v))
		}
	}
}

func TestFloodsOnlyNewValues(t *testing.T) {
	// Message economy: in a failure-free run, round 1 carries proposals
	// (n(n-1) messages), round 2 floods the newly learned values, and later
	// rounds are silent — no process learns anything new.
	props := []sim.Value{3, 1, 2}
	res := run(t, props, 2, adversary.None{})
	// Round 1: 6 msgs; round 2: 6 msgs (each learned 2 new values); round 3:
	// nothing new -> 0 msgs.
	if res.Counters.DataMsgs != 12 {
		t.Errorf("data messages = %d, want 12", res.Counters.DataMsgs)
	}
}

func TestBitAccountingPerValue(t *testing.T) {
	props := []sim.Value{3, 1, 2}
	procs := floodset.NewSystem(props, 1, 16)
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic, Horizon: 4}, procs, adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: 6 single-value messages (16 bits each); round 2: 6 messages
	// carrying 2 values each (32 bits each).
	if want := 6*16 + 6*32; res.Counters.DataBits != want {
		t.Errorf("data bits = %d, want %d", res.Counters.DataBits, want)
	}
}

func TestPropertyUniformUnderRandomFaults(t *testing.T) {
	prop := func(seedRaw, nRaw uint8) bool {
		n := int(nRaw%6) + 3
		tt := n - 1
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = sim.Value((int(seedRaw)*7 + i*13) % 50)
		}
		procs := floodset.NewSystem(props, tt, 8)
		eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic, Horizon: sim.Round(tt + 2)},
			procs, adversary.NewRandom(int64(seedRaw), 0.25, tt))
		if err != nil {
			return false
		}
		res, err := eng.Run()
		if err != nil {
			return false
		}
		return check.Consensus(props, res) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestValueSetPayload(t *testing.T) {
	s := floodset.ValueSet{Values: []sim.Value{1, 2, 3}, B: 8}
	if s.Bits() != 24 {
		t.Errorf("Bits = %d, want 24", s.Bits())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// TestSendAllocsIndependentOfN pins the allocation-lean send path: every Send
// refills the plan's backing array that comes with the process and sends
// its fresh window in place, so it only boxes the payload, shared by all n-1
// messages.
func TestSendAllocsIndependentOfN(t *testing.T) {
	const runs = 20
	sendAllocs := func(n int) (first, later float64) {
		fresh := make([]*floodset.Protocol, runs+1) // AllocsPerRun adds a warm-up call
		for i := range fresh {
			fresh[i] = floodset.New(1, n, n/2, 7, 0)
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
	if first8 != 1 || first64 != 1 {
		t.Errorf("first Send allocates %.0f at n=8 and %.0f at n=64, want 1 (the boxed payload)", first8, first64)
	}
	if later8 != 1 || later64 != 1 {
		t.Errorf("later Sends allocate %.0f at n=8 and %.0f at n=64, want 1 (the boxed payload)", later8, later64)
	}
}
