package floodset_test

import (
	"testing"
	"testing/quick"
	"unsafe"

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
	s := &floodset.ValueSet{Values: []sim.Value{1, 2, 3}, B: 8}
	if s.Bits() != 24 {
		t.Errorf("Bits = %d, want 24", s.Bits())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// TestSendAllocsIndependentOfN pins the allocation-free send path: every
// Send refills the plan's backing array and rewrites the payload slot that
// come with the process, and the slot points at the fresh window in place.
func TestSendAllocsIndependentOfN(t *testing.T) {
	const runs = 20
	sendAllocs := func(n int) (first, later float64) {
		fresh := make([]*floodset.Protocol, runs+1) // AllocsPerRun adds a warm-up call
		for i := range fresh {
			fresh[i] = newProc(1, n, n/2, 7, 0)
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
	if first8 != 0 || first64 != 0 {
		t.Errorf("first Send allocates %.0f at n=8 and %.0f at n=64, want 0", first8, first64)
	}
	if later8 != 0 || later64 != 0 {
		t.Errorf("later Sends allocate %.0f at n=8 and %.0f at n=64, want 0", later8, later64)
	}
}

// TestProtocolSize keeps bytes per run from creeping: a process is its 112
// bytes of state plus one ValueSet, the slot being the only per-process price
// of a Send that allocates nothing.
func TestProtocolSize(t *testing.T) {
	size, slot := unsafe.Sizeof(floodset.Protocol{}), unsafe.Sizeof(floodset.ValueSet{})
	if size > 112+slot {
		t.Errorf("Protocol is %d bytes, want <= %d (112 of state plus the %d-byte payload slot)", size, 112+slot, slot)
	}
}

// TestPayloadLifetimeReceiveCopiesOut: a payload is valid only during its
// round (the sim.Process.Send contract), so a receiver copies out what it
// keeps. Rewriting a delivered set afterwards, as its sender's next Send
// rewrites its slot and window, must reach neither p1's flood nor its
// decision.
func TestPayloadLifetimeReceiveCopiesOut(t *testing.T) {
	p := newProc(1, 3, 2, 7, 0)
	vals := []sim.Value{3}
	p.Receive(1, []sim.Message{{From: 2, To: 1, Round: 1, Kind: sim.Data,
		Payload: &floodset.ValueSet{Values: vals, B: 64}}})
	vals[0] = 1
	plan := p.Send(2)
	if got := plan.Data[0].Payload.(*floodset.ValueSet).Values; len(got) != 1 || got[0] != 3 {
		t.Fatalf("p1 floods %v after the delivered payload was rewritten, want [3]", got)
	}
	p.Receive(2, nil)
	p.Receive(3, nil)
	if v, ok := p.Decided(); !ok || v != 3 {
		t.Fatalf("decided %d,%t, want 3,true", v, ok)
	}
}

// newProc returns p_id of a fresh n-process system tolerating t crashes,
// proposing v with bit width b.
func newProc(id sim.ProcID, n, t int, v sim.Value, b int) *floodset.Protocol {
	props := make([]sim.Value, n)
	props[id-1] = v
	return floodset.NewSystem(props, t, b)[id-1].(*floodset.Protocol)
}
