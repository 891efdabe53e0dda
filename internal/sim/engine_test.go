package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
	"repro/internal/trace"
)

// echoProc is a minimal test protocol: in round 1 every process broadcasts
// its value (data) and optionally a control sequence; each process decides
// the smallest value it knows at the end of round decideAt.
type echoProc struct {
	id       sim.ProcID
	n        int
	val      sim.Value
	ctrl     bool
	decideAt sim.Round

	decided bool
	dec     sim.Value
	halted  bool
}

func (p *echoProc) ID() sim.ProcID { return p.id }

func (p *echoProc) Send(r sim.Round) sim.SendPlan {
	if r != 1 {
		return sim.SendPlan{}
	}
	var plan sim.SendPlan
	for j := 1; j <= p.n; j++ {
		if sim.ProcID(j) == p.id {
			continue
		}
		plan.Data = append(plan.Data, sim.Outgoing{To: sim.ProcID(j), Payload: &sim.Est{V: p.val, B: 8}})
		if p.ctrl {
			plan.Control = append(plan.Control, sim.ProcID(j))
		}
	}
	return plan
}

func (p *echoProc) Receive(r sim.Round, inbox []sim.Message) {
	for _, m := range inbox {
		if e, ok := m.Payload.(*sim.Est); ok && e.V < p.val {
			p.val = e.V
		}
	}
	if r >= p.decideAt {
		p.decided, p.dec, p.halted = true, p.val, true
	}
}

func (p *echoProc) Decided() (sim.Value, bool) { return p.dec, p.decided }
func (p *echoProc) Halted() bool               { return p.halted }

func echoSystem(n int, ctrl bool, decideAt sim.Round) []sim.Process {
	procs := make([]sim.Process, n)
	for i := 0; i < n; i++ {
		procs[i] = &echoProc{id: sim.ProcID(i + 1), n: n, val: sim.Value(i + 1), ctrl: ctrl, decideAt: decideAt}
	}
	return procs
}

func mustEngine(t *testing.T, cfg sim.Config, procs []sim.Process, adv sim.Adversary) *sim.Engine {
	t.Helper()
	e, err := sim.NewEngine(cfg, procs, adv)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func TestEngineFailureFreeBroadcast(t *testing.T) {
	procs := echoSystem(4, false, 1)
	e := mustEngine(t, sim.Config{Model: sim.ModelClassic}, procs, adversary.None{})
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
	for id := sim.ProcID(1); id <= 4; id++ {
		if v, ok := res.Decision(id); !ok || v != 1 {
			t.Errorf("p%d decided %d,%t; want 1,true", id, int64(v), ok)
		}
	}
	if got := res.Counters.DataMsgs; got != 12 {
		t.Errorf("data messages = %d, want 12", got)
	}
	if got := res.Counters.DataBits; got != 12*8 {
		t.Errorf("data bits = %d, want %d", got, 12*8)
	}
}

func TestEngineAllowsControlUnderExtended(t *testing.T) {
	procs := echoSystem(3, true, 1)
	e := mustEngine(t, sim.Config{Model: sim.ModelExtended}, procs, adversary.None{})
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Counters.CtrlMsgs != 6 {
		t.Errorf("control messages = %d, want 6", res.Counters.CtrlMsgs)
	}
	if res.Counters.CtrlBits != 6 {
		t.Errorf("control bits = %d, want 6", res.Counters.CtrlBits)
	}
}

func TestEngineCrashSubsetSemantics(t *testing.T) {
	// p1 crashes in round 1 delivering data only to p3 (mask position 2 of
	// [->2, ->3, ->4]). p3 should learn value 1; p2 and p4 should not.
	procs := echoSystem(4, false, 1)
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 1, DataMask: []bool{false, true, false}},
	})
	e := mustEngine(t, sim.Config{Model: sim.ModelClassic}, procs, adv)
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Procs[0].CrashRound == 0 {
		t.Fatal("p1 did not crash")
	}
	if _, decided := res.Decision(1); decided {
		t.Error("crashed p1 decided")
	}
	if v, _ := res.Decision(3); v != 1 {
		t.Errorf("p3 decided %d, want 1 (received p1's value)", int64(v))
	}
	if v, _ := res.Decision(2); v != 2 {
		t.Errorf("p2 decided %d, want 2 (p1's message dropped)", int64(v))
	}
	if v, _ := res.Decision(4); v != 2 {
		t.Errorf("p4 decided %d, want 2 (learned only p2, p3)", int64(v))
	}
	if res.Counters.DroppedData == 0 {
		t.Error("expected dropped data messages")
	}
}

func TestEngineCrashPrefixSemantics(t *testing.T) {
	// In the extended model a control sequence is truncated to a prefix.
	// p1's control order is [p2, p3, p4] (echoProc emits ascending); with
	// prefix 2 exactly p2 and p3 receive the control message.
	procs := echoSystem(4, true, 1)
	log := trace.New()
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		1: {Round: 1, DeliverAllData: true, CtrlPrefix: 2},
	})
	e := mustEngine(t, sim.Config{Model: sim.ModelExtended, Trace: log}, procs, adv)
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Counters.CtrlMsgs != 2+9 { // p1's prefix 2 + full 3 from each of p2..p4
		t.Errorf("control messages = %d, want 11", res.Counters.CtrlMsgs)
	}
	if res.Counters.DroppedCtrl != 1 {
		t.Errorf("dropped control = %d, want 1", res.Counters.DroppedCtrl)
	}
	// The delivered control messages from p1 must be exactly to p2 and p3.
	var ctrlTo []int
	for _, ev := range log.Filter(trace.KindDeliver) {
		if ev.From == 1 && ev.Detail == "control" {
			ctrlTo = append(ctrlTo, ev.To)
		}
	}
	if len(ctrlTo) != 2 || ctrlTo[0] != 2 || ctrlTo[1] != 3 {
		t.Errorf("p1 control deliveries = %v, want [2 3]", ctrlTo)
	}
}

func TestEngineCrashedReceivesNothing(t *testing.T) {
	// p2 crashes during round 1's send phase: it must not decide even though
	// messages were addressed to it.
	procs := echoSystem(3, false, 1)
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		2: {Round: 1, DeliverAllData: true},
	})
	e := mustEngine(t, sim.Config{Model: sim.ModelClassic}, procs, adv)
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, ok := res.Decision(2); ok {
		t.Error("p2 decided despite crashing before its receive phase")
	}
	if v, _ := res.Decision(3); v != 1 {
		t.Errorf("p3 decided %d, want 1", int64(v))
	}
}

func TestEngineHaltedProcessStopsSending(t *testing.T) {
	// With decideAt=1 every process halts after round 1; a second round must
	// not happen and message counts must reflect one round only.
	procs := echoSystem(3, false, 1)
	e := mustEngine(t, sim.Config{Model: sim.ModelClassic, Horizon: 5}, procs, adversary.None{})
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
	if res.Counters.DataMsgs != 6 {
		t.Errorf("data messages = %d, want 6", res.Counters.DataMsgs)
	}
}

func TestEngineDropsMessagesToCrashedProcesses(t *testing.T) {
	// p3 crashes in round 1 (sending everything); messages addressed to it in
	// the same round vanish and it never decides.
	procs := echoSystem(3, false, 2)
	adv := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
		3: {Round: 1, DeliverAllData: true},
	})
	e := mustEngine(t, sim.Config{Model: sim.ModelClassic}, procs, adv)
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, ok := res.Decision(3); ok {
		t.Error("crashed p3 decided")
	}
	// p1 and p2 still learn p3's value 3? No: they learn values 1,2,3 and
	// decide min = 1 at round 2.
	if v, _ := res.Decision(1); v != 1 {
		t.Errorf("p1 decided %d, want 1", int64(v))
	}
}

func TestResultHelpers(t *testing.T) {
	procs := echoSystem(3, false, 1)
	e := mustEngine(t, sim.Config{Model: sim.ModelClassic}, procs, adversary.None{})
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f := res.Faults(); f != 0 {
		t.Errorf("Faults = %d, want 0", f)
	}
	if m := res.MaxDecideRound(); m != 1 {
		t.Errorf("MaxDecideRound = %d, want 1", m)
	}
	if d := res.DistinctDecisions(); len(d) != 1 || d[0] != 1 {
		t.Errorf("DistinctDecisions = %v, want [1]", d)
	}
}

// TestResultMapStringsMatchFmt pins the decisions rendering to fmt's own
// output for the equivalent map: violation texts and CLI lines printed the
// map of the map-shaped result, and their bytes must not move.
func TestResultMapStringsMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		res := &sim.Result{Procs: make([]sim.Outcome, rng.Intn(12))}
		dec := map[sim.ProcID]sim.Value{}
		for i := range res.Procs {
			o := &res.Procs[i]
			if rng.Intn(3) > 0 {
				o.Value, o.DecideRound = sim.Value(rng.Intn(2000)-1000), sim.Round(1+rng.Intn(9))
				dec[sim.ProcID(i+1)] = o.Value
			}
		}
		if got, want := res.DecisionsString(), fmt.Sprint(dec); got != want {
			t.Fatalf("trial %d: rendered %q, fmt renders %q", trial, got, want)
		}
	}
}

func TestMessageBits(t *testing.T) {
	d := sim.Message{Kind: sim.Data, Payload: &sim.Est{V: 7, B: 32}}
	if d.Bits() != 32 {
		t.Errorf("data bits = %d, want 32", d.Bits())
	}
	c := sim.Message{Kind: sim.Control}
	if c.Bits() != 1 {
		t.Errorf("control bits = %d, want 1", c.Bits())
	}
	empty := sim.Message{Kind: sim.Data}
	if empty.Bits() != 0 {
		t.Errorf("nil-payload bits = %d, want 0", empty.Bits())
	}
}

func TestDeliveryHelpers(t *testing.T) {
	plan := sim.SendPlan{
		Data:    []sim.Outgoing{{To: 2}, {To: 3}},
		Control: []sim.ProcID{3, 2},
	}
	none := sim.NoDelivery(plan)
	if len(none.DataDelivered) != 2 || none.DataDelivered[0] || none.DataDelivered[1] || none.CtrlPrefix != 0 {
		t.Errorf("NoDelivery = %+v", none)
	}
	if plan.IsEmpty() {
		t.Error("non-empty plan reported empty")
	}
	if !(sim.SendPlan{}).IsEmpty() {
		t.Error("empty plan reported non-empty")
	}
}

func TestModelAndKindStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{sim.ModelClassic.String(), "classic"},
		{sim.ModelExtended.String(), "extended"},
		{sim.Data.String(), "data"},
		{sim.Control.String(), "control"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}
