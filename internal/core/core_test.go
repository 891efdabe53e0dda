package core_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sim"
)

// run executes one CRW instance and returns the result.
func run(t *testing.T, proposals []sim.Value, opts core.Options, adv sim.Adversary) *sim.Result {
	t.Helper()
	return runProcs(t, core.NewSystem(proposals, opts), opts, adv)
}

// runProcs executes the CRW instance procs and returns the result.
func runProcs(t *testing.T, procs []sim.Process, opts core.Options, adv sim.Adversary) *sim.Result {
	t.Helper()
	model := sim.ModelExtended
	if opts.CommitAsData {
		model = sim.ModelClassic
	}
	eng, err := sim.NewEngine(sim.Config{Model: model, Horizon: sim.Round(len(procs) + 2)}, procs, adv)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func proposals(n int) []sim.Value {
	vs := make([]sim.Value, n)
	for i := range vs {
		vs[i] = sim.Value(100 + i)
	}
	return vs
}

func TestFailureFreeDecidesInOneRound(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 32} {
		props := proposals(n)
		res := run(t, props, core.Options{}, adversary.None{})
		if res.Rounds != 1 {
			t.Errorf("n=%d: rounds = %d, want 1", n, res.Rounds)
		}
		if err := check.Consensus(props, res); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		deciders := 0
		for id, v := range res.Decisions() {
			deciders++
			if v != props[0] {
				t.Errorf("n=%d: p%d decided %d, want p1's proposal %d", n, id, int64(v), int64(props[0]))
			}
		}
		if deciders != n {
			t.Errorf("n=%d: %d deciders, want %d", n, deciders, n)
		}
	}
}

func TestCoordinatorKillerForcesFPlus1Rounds(t *testing.T) {
	// The silent coordinator-killer (no deliveries) is the schedule that
	// matches the lower bound: decision happens at round exactly f+1.
	const n = 6
	for f := 0; f <= n-1; f++ {
		props := proposals(n)
		adv := adversary.CoordinatorKiller{F: f}
		res := run(t, props, core.Options{}, adv)
		if res.Faults() != f {
			t.Fatalf("f=%d: faults = %d", f, res.Faults())
		}
		if err := check.Consensus(props, res); err != nil {
			t.Errorf("f=%d: %v", f, err)
		}
		if got, want := res.MaxDecideRound(), sim.Round(f+1); got != want {
			t.Errorf("f=%d: max decide round = %d, want %d", f, got, want)
		}
		// With silent crashes the surviving coordinator p_{f+1} imposes its
		// own proposal.
		for id, v := range res.Decisions() {
			if v != props[f] {
				t.Errorf("f=%d: p%d decided %d, want %d", f, id, int64(v), int64(props[f]))
			}
		}
	}
}

func TestDataDeliveredKillerLocksFirstValue(t *testing.T) {
	// If crashing coordinators deliver all their DATA (but no COMMIT), the
	// first coordinator's estimate is adopted by everyone and is the value
	// eventually decided — the "value locking" of line 4.
	const n = 5
	for f := 1; f <= 3; f++ {
		props := proposals(n)
		adv := adversary.CoordinatorKiller{F: f, DeliverAllData: true}
		res := run(t, props, core.Options{}, adv)
		if err := check.Consensus(props, res); err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		for id, v := range res.Decisions() {
			if v != props[0] {
				t.Errorf("f=%d: p%d decided %d, want locked value %d", f, id, int64(v), int64(props[0]))
			}
		}
		if got, want := res.MaxDecideRound(), sim.Round(f+1); got != want {
			t.Errorf("f=%d: max decide round = %d, want %d", f, got, want)
		}
	}
}

func TestCommitPrefixDecidersAreHighIDs(t *testing.T) {
	// p1 crashes after delivering DATA to everyone and COMMIT to a prefix of
	// the descending order (p5, p4): exactly the high-id processes p4, p5
	// decide in round 1; the rest decide in round 2 under p2. All decide p1's
	// value.
	props := proposals(5)
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 1, DeliverAllData: true, CtrlPrefix: 2},
	})
	res := run(t, props, core.Options{}, adv)
	if err := check.Consensus(props, res); err != nil {
		t.Fatal(err)
	}
	for _, id := range []sim.ProcID{4, 5} {
		if r := res.Procs[id-1].DecideRound; r != 1 {
			t.Errorf("p%d decided at round %d, want 1", id, r)
		}
	}
	for _, id := range []sim.ProcID{2, 3} {
		if r := res.Procs[id-1].DecideRound; r != 2 {
			t.Errorf("p%d decided at round %d, want 2", id, r)
		}
	}
	for id, v := range res.Decisions() {
		if v != props[0] {
			t.Errorf("p%d decided %d, want %d", id, int64(v), int64(props[0]))
		}
	}
	// Decision at round 2 respects the f+1 bound (f=1).
	if err := check.RoundBound(res, check.BoundFPlus1); err != nil {
		t.Error(err)
	}
}

func TestCommitImpliesDataInExtendedModel(t *testing.T) {
	// A crash during the control step means the data step completed, so a
	// COMMIT receiver always has the coordinator's estimate: the decision can
	// never be a stale value. Exercise every prefix length.
	const n = 4
	for prefix := 0; prefix <= n-1; prefix++ {
		props := proposals(n)
		adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
			1: {Round: 1, DeliverAllData: true, CtrlPrefix: prefix},
		})
		res := run(t, props, core.Options{}, adv)
		if err := check.Consensus(props, res); err != nil {
			t.Errorf("prefix=%d: %v", prefix, err)
		}
		for id, v := range res.Decisions() {
			if v != props[0] {
				t.Errorf("prefix=%d: p%d decided %d, want %d", prefix, id, int64(v), int64(props[0]))
			}
		}
	}
}

func TestBitAccountingFailureFree(t *testing.T) {
	// Theorem 2 best case: p1 sends one b-bit data message and one 1-bit
	// commit to each of the n-1 others: (n-1)(b+1) bits total.
	const n, b = 8, 64
	props := proposals(n)
	res := run(t, props, core.Options{Bits: b}, adversary.None{})
	want := core.BestCaseBits(n, b)
	if got := res.Counters.TotalBits(); got != want {
		t.Errorf("total bits = %d, want %d", got, want)
	}
	if res.Counters.DataMsgs != n-1 || res.Counters.CtrlMsgs != n-1 {
		t.Errorf("messages = %d data + %d ctrl, want %d each",
			res.Counters.DataMsgs, res.Counters.CtrlMsgs, n-1)
	}
}

func TestWorstCaseFormulas(t *testing.T) {
	// sum_{i=1..t+1} (n-i) computed directly vs closed form.
	for n := 2; n <= 20; n++ {
		for tt := 0; tt < n; tt++ {
			want := 0
			for i := 1; i <= tt+1; i++ {
				want += n - i
			}
			if got := core.WorstCaseDataMessages(n, tt); got != want {
				t.Errorf("WorstCaseDataMessages(%d,%d) = %d, want %d", n, tt, got, want)
			}
		}
	}
	if got, want := core.BestCaseBits(5, 8), 4*9; got != want {
		t.Errorf("BestCaseBits(5,8) = %d, want %d", got, want)
	}
	if got, want := core.WorstCaseBits(5, 2, 8), core.WorstCaseDataMessages(5, 2)*8+core.WorstCaseCommitMessages(5, 2); got != want {
		t.Errorf("WorstCaseBits = %d, want %d", got, want)
	}
}

func TestMeasuredCostNeverExceedsTheorem2Bound(t *testing.T) {
	// Under randomized adversaries the measured bit cost stays within the
	// worst-case bound of Theorem 2.
	const n, b = 8, 32
	tt := n - 1
	bound := core.WorstCaseBits(n, tt, b)
	for seed := int64(0); seed < 50; seed++ {
		props := proposals(n)
		adv := adversary.NewRandom(seed, 0.3, tt)
		res := run(t, props, core.Options{Bits: b}, adv)
		if err := check.Consensus(props, res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := res.Counters.TotalBits(); got > bound {
			t.Errorf("seed %d: bits %d exceed Theorem 2 bound %d", seed, got, bound)
		}
	}
}

func TestAscendingCommitOrderViolatesBound(t *testing.T) {
	// Ablation E10a: with the ascending commit order, p1 can crash while
	// delivering DATA to everyone and COMMIT to p2, p3 (but not p4). Then
	// p2, p3 decide and return in round 1; rounds 2 and 3 have returned
	// coordinators; p4 only decides when it becomes coordinator in round 4.
	// f = 1 but the decision happens at round 4 — the f+1 bound of Theorem 1
	// fails, demonstrating the descending order of line 5 is load-bearing.
	props := proposals(4)
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 1, DeliverAllData: true, CtrlPrefix: 2},
	})
	procs := core.NewSystem(props, core.Options{Order: core.OrderAscending})
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended, Horizon: 6}, procs, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Uniform agreement still holds (everyone decides p1's value)...
	if err := check.Consensus(props, res); err != nil {
		t.Fatal(err)
	}
	// ...but the f+1 round bound does not.
	if err := check.RoundBound(res, check.BoundFPlus1); err == nil {
		t.Fatalf("ascending order unexpectedly met the f+1 bound (max decide round %d, f=%d)",
			res.MaxDecideRound(), res.Faults())
	}
	if r := res.Procs[3].DecideRound; r != 4 {
		t.Errorf("p4 decided at round %d, want 4", r)
	}
}

func TestCommitAsDataViolatesUniformAgreement(t *testing.T) {
	// Ablation E10b: sending the COMMIT as an ordinary data message removes
	// the two-step structure; a crash can then deliver the COMMIT without
	// the estimate. p2 decides its own stale proposal while p3 later decides
	// p3's — uniform agreement fails.
	//
	// p1's data plan under CommitAsData (descending commit order) is:
	//   [est->p2, est->p3, commit->p3, commit->p2]
	// The mask delivers only the commit to p2.
	props := proposals(3)
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 1, DataMask: []bool{false, false, false, true}},
	})
	procs := core.NewSystem(props, core.Options{CommitAsData: true})
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelClassic, Horizon: 6}, procs, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := check.Consensus(props, res); err == nil {
		t.Fatalf("commit-as-data unexpectedly kept uniform agreement: decisions %s", res.DecisionsString())
	}
	if v, _ := res.Decision(2); v != props[1] {
		t.Errorf("p2 decided %d, want its stale proposal %d", int64(v), int64(props[1]))
	}
	if v, _ := res.Decision(3); v != props[2] {
		t.Errorf("p3 decided %d, want its own proposal %d", int64(v), int64(props[2]))
	}
}

func TestViolatedNeverSetInFaithfulRuns(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		props := proposals(5)
		procs := core.NewSystem(props, core.Options{})
		eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended}, procs,
			adversary.NewRandom(seed, 0.25, 4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range procs {
			if p.(*core.Protocol).Violated() {
				t.Fatalf("seed %d: line 9 (cannot happen) reached on p%d", seed, p.ID())
			}
		}
	}
}

func TestSingleProcessDecidesAlone(t *testing.T) {
	props := []sim.Value{42}
	res := run(t, props, core.Options{}, adversary.None{})
	if v, _ := res.Decision(1); v != 42 {
		t.Errorf("decided %d, want 42", int64(v))
	}
	if res.Counters.TotalMsgs() != 0 {
		t.Errorf("messages = %d, want 0", res.Counters.TotalMsgs())
	}
}

func TestCommitOrderDests(t *testing.T) {
	p := newProc(2, 5, 7, core.Options{})
	plan := p.Send(2)
	wantCtrl := []sim.ProcID{5, 4, 3}
	if len(plan.Control) != len(wantCtrl) {
		t.Fatalf("control = %v, want %v", plan.Control, wantCtrl)
	}
	for i, id := range wantCtrl {
		if plan.Control[i] != id {
			t.Errorf("control[%d] = %d, want %d", i, plan.Control[i], id)
		}
	}
	if len(plan.Data) != 3 {
		t.Errorf("data plan length = %d, want 3", len(plan.Data))
	}
	// Non-coordinator rounds send nothing.
	if !p.Send(1).IsEmpty() {
		t.Error("non-coordinator sent messages")
	}
}

// TestSendAllocsIndependentOfN pins the allocation-free send path: a
// coordinator's Send rewrites the system's payload slot, which all its data
// messages point at, and refills the system's plan buffer; Control is a view
// of an immutable table.
func TestSendAllocsIndependentOfN(t *testing.T) {
	sendAllocs := func(n int) float64 {
		p := newProc(1, n, 7, core.Options{})
		return testing.AllocsPerRun(50, func() {
			if plan := p.Send(1); len(plan.Data) != n-1 || len(plan.Control) != n-1 {
				t.Fatalf("n=%d: plan %d data / %d control", n, len(plan.Data), len(plan.Control))
			}
		})
	}
	small, large := sendAllocs(8), sendAllocs(64)
	if small != 0 || large != 0 {
		t.Errorf("Send allocates %.0f at n=8 and %.0f at n=64, want 0", small, large)
	}
}

// TestPayloadLifetimeReceiveCopiesOut: a payload is valid only during its
// round (the sim.Process.Send contract), so a receiver copies out what it
// keeps. Rewriting a delivered estimate afterwards, as the next
// coordinator's Send rewrites the system's slot, must not reach p2's state.
func TestPayloadLifetimeReceiveCopiesOut(t *testing.T) {
	p := newProc(2, 3, 105, core.Options{})
	est := &sim.Est{V: 3, B: 64}
	p.Receive(1, []sim.Message{{From: 1, To: 2, Round: 1, Kind: sim.Data, Payload: est}})
	est.V = 1
	if got := p.Estimate(); got != 3 {
		t.Fatalf("estimate %d after the delivered payload was rewritten, want 3", got)
	}
	plan := p.Send(2)
	if m := plan.Data[0].Payload.(*sim.Est); m.V != 3 {
		t.Fatalf("p2 sends est %d, want 3", m.V)
	}
}

// newProc returns p_id of a fresh n-process system, proposing v.
func newProc(id sim.ProcID, n int, v sim.Value, opts core.Options) *core.Protocol {
	props := make([]sim.Value, n)
	props[id-1] = v
	return core.NewSystem(props, opts)[id-1].(*core.Protocol)
}
