package earlystop_test

import (
	"testing"
	"testing/quick"
	"unsafe"

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
	for id, v := range res.Decisions() {
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
		want := check.BoundClassic(tt)(res.Faults())
		if got := res.MaxDecideRound(); got > want {
			t.Errorf("f=%d: decide round %d exceeds min(f+2,t+1) = %d", f, got, want)
		}
	}
}

// TestRoundBoundHelper pins the early-stopping bound min(f+2, t+1) that
// check.BoundClassic returns for the baseline.
func TestRoundBoundHelper(t *testing.T) {
	cases := []struct{ f, t, want int }{
		{0, 5, 2}, {1, 5, 3}, {4, 5, 6}, {5, 5, 6}, {3, 3, 4},
	}
	for _, c := range cases {
		if got := check.BoundClassic(c.t)(c.f); got != sim.Round(c.want) {
			t.Errorf("BoundClassic(%d)(%d) = %d, want %d", c.t, c.f, got, c.want)
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
	m := &earlystop.EstMsg{Est: 5, Early: true, B: 32}
	if m.Bits() != 33 {
		t.Errorf("Bits = %d, want 33", m.Bits())
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

// TestSendAllocsIndependentOfN pins the allocation-free send path: every
// Send rewrites the payload slot and refills the plan's backing array that
// come with the process, whether or not the estimate changed since the last
// round.
func TestSendAllocsIndependentOfN(t *testing.T) {
	const runs = 20
	sendAllocs := func(n int) (first, unchanged, changed float64) {
		fresh := make([]*earlystop.Protocol, runs+1) // AllocsPerRun adds a warm-up call
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
		unchanged = testing.AllocsPerRun(runs, func() { fresh[0].Send(2) })
		// A lower estimate from p2 changes est and leaves the flag unset (p1
		// heard from 2 processes, and n-2 crashes are not fewer than r=1), so
		// round 2's Send must carry the new estimate.
		inbox := []sim.Message{{From: 2, To: 1, Round: 1, Kind: sim.Data, Payload: &earlystop.EstMsg{Est: 3, B: 64}}}
		for _, p := range fresh {
			p.Receive(1, inbox)
		}
		i = 0
		changed = testing.AllocsPerRun(runs, func() {
			plan := fresh[i].Send(2)
			if m := plan.Data[0].Payload.(*earlystop.EstMsg); m.Est != 3 || m.Early || m.Bits() != 65 {
				t.Fatalf("n=%d: round 2 sends %+v, want est 3 without the flag", n, m)
			}
			i++
		})
		return first, unchanged, changed
	}
	first8, unchanged8, changed8 := sendAllocs(8)
	first64, unchanged64, changed64 := sendAllocs(64)
	if first8 != 0 || first64 != 0 {
		t.Errorf("first Send allocates %.0f at n=8 and %.0f at n=64, want 0", first8, first64)
	}
	if unchanged8 != 0 || unchanged64 != 0 {
		t.Errorf("unchanged later Sends allocate %.0f at n=8 and %.0f at n=64, want 0", unchanged8, unchanged64)
	}
	if changed8 != 0 || changed64 != 0 {
		t.Errorf("Sends after an estimate change allocate %.0f at n=8 and %.0f at n=64, want 0", changed8, changed64)
	}
}

// TestProtocolSize keeps bytes per run from creeping: a process is its 72
// bytes of state plus one EstMsg, the slot being the only per-process price
// of a Send that allocates nothing.
func TestProtocolSize(t *testing.T) {
	size, slot := unsafe.Sizeof(earlystop.Protocol{}), unsafe.Sizeof(earlystop.EstMsg{})
	if size > 72+slot {
		t.Errorf("Protocol is %d bytes, want <= %d (72 of state plus the %d-byte payload slot)", size, 72+slot, slot)
	}
}

// TestPayloadLifetimeReceiveCopiesOut: a payload is valid only during its
// round (the sim.Process.Send contract), so a receiver copies out what it
// keeps. Rewriting a delivered message afterwards, as its sender's next Send
// rewrites its slot, must not reach p1's next round.
func TestPayloadLifetimeReceiveCopiesOut(t *testing.T) {
	p := newProc(1, 3, 2, 7, 0)
	msg := &earlystop.EstMsg{Est: 3, B: 64}
	p.Receive(1, []sim.Message{{From: 2, To: 1, Round: 1, Kind: sim.Data, Payload: msg}})
	msg.Est, msg.Early = 1, true
	plan := p.Send(2)
	if m := plan.Data[0].Payload.(*earlystop.EstMsg); m.Est != 3 || m.Early {
		t.Fatalf("p1 sends %+v after the delivered payload was rewritten, want est 3 without the flag", *m)
	}
}

// newProc returns p_id of a fresh n-process system tolerating t crashes,
// proposing v with bit width b.
func newProc(id sim.ProcID, n, t int, v sim.Value, b int) *earlystop.Protocol {
	props := make([]sim.Value, n)
	props[id-1] = v
	return earlystop.NewSystem(props, t, b)[id-1].(*earlystop.Protocol)
}
