package sim_test

import (
	"errors"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/sim"
)

// These tests cover the first-class omission fault model (sim.Omitter),
// which replaced the old Config.Loss ablation hook: send- and
// receive-omission faults applied by the engine itself, identically on both
// engines. The paper's model explicitly assumes reliable channels, so the
// CRW scenarios below demonstrate that assumption is load-bearing
// (experiment E14/E15).

func TestSendOmissionDropsWholePlan(t *testing.T) {
	procs := echoSystem(3, false, 1)
	adv := replay(t, "p1@r1:so:000/000")
	e := mustEngine(t, sim.Config{Model: sim.ModelClassic}, procs, adv)
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// p1's value 1 never escaped: p2 and p3 decide min of {2,3}.
	if v, _ := res.Decision(2); v != 2 {
		t.Errorf("p2 decided %d, want 2", int64(v))
	}
	if res.Counters.OmittedData != 2 {
		t.Errorf("omitted data = %d, want 2 (both of p1's messages)", res.Counters.OmittedData)
	}
	if res.Counters.DroppedData != 0 {
		t.Errorf("dropped data = %d, want 0 (omissions are not crash truncations)", res.Counters.DroppedData)
	}
	// p1 itself is alive, decides its own value, and is reported omissive:
	// omission breaks agreement even in this toy protocol, with zero crashes.
	if v, _ := res.Decision(1); v != 1 {
		t.Errorf("p1 decided %d, want 1", int64(v))
	}
	if res.Faults() != 0 {
		t.Errorf("faults = %d, want 0", res.Faults())
	}
	if res.OmissionFaulty() != 1 || res.Procs[0].OmissiveRounds != 1 {
		t.Errorf("outcomes = %+v, want p1 with 1 omissive round", res.Procs)
	}
}

func TestSendOmissionBreaksCRWAgreementWithoutCrashes(t *testing.T) {
	// The E14 counterexample in unit-test form: omit exactly the DATA from
	// p1 to p2 while the pipelined COMMIT goes through. p2 commits its stale
	// estimate; everyone else commits p1's. Zero crashes. (The round-1
	// coordinator broadcasts data to p2..pn in order, so data position 0 is
	// the p2 message.)
	props := []sim.Value{10, 11, 12}
	procs := core.NewSystem(props, core.Options{})
	adv := replay(t, "p1@r1:so:0/")
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended, Horizon: 5}, procs, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Faults() != 0 {
		t.Fatalf("faults = %d, want 0", res.Faults())
	}
	if got := res.DistinctDecisions(); len(got) != 2 {
		t.Fatalf("distinct decisions = %v, want an agreement violation", got)
	}
	if res.Procs[1].Value != 11 {
		t.Errorf("p2 decided %d, want its stale proposal 11", int64(res.Procs[1].Value))
	}
	if res.Procs[2].Value != 10 {
		t.Errorf("p3 decided %d, want p1's 10", int64(res.Procs[2].Value))
	}
	if res.Counters.OmittedData != 1 {
		t.Errorf("omitted data = %d, want 1", res.Counters.OmittedData)
	}
}

func TestRecvOmissionSuppressesSelectedSenders(t *testing.T) {
	// p2 is receive-omission faulty towards p1 in round 1: every round-1
	// message from p1 (data and control alike) vanishes at p2's interface.
	props := []sim.Value{10, 11, 12}
	procs := core.NewSystem(props, core.Options{})
	adv := replay(t, "p2@r1:ro:011")
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended, Horizon: 5}, procs, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil && !errors.Is(err, sim.ErrNoProgress) {
		t.Fatalf("Run: %v", err)
	}
	if res.Counters.OmittedRecv == 0 {
		t.Error("no deliveries were suppressed")
	}
	if res.Faults() != 0 {
		t.Errorf("faults = %d, want 0", res.Faults())
	}
	if res.OmissionFaulty() != 1 || res.Procs[1].OmissiveRounds != 1 {
		t.Errorf("outcomes = %+v, want p2 with 1 omissive round", res.Procs)
	}
	// p1 and p3 saw a failure-free round 1 and decide p1's estimate; p2
	// missed the coordinator entirely and must not have decided 10 in
	// round 1 with them.
	if res.Procs[0].Value != 10 || res.Procs[2].Value != 10 {
		t.Errorf("p1/p3 decided %s, want both 10", res.DecisionsString())
	}
	if res.Procs[1].DecideRound == 1 {
		t.Errorf("p2 decided in round 1 despite missing the coordinator")
	}
}

func TestNoOmissionsIsReliable(t *testing.T) {
	props := []sim.Value{10, 11, 12}
	procs := core.NewSystem(props, core.Options{})
	adv := crashOmitter{adversary.None{}, func(sim.ProcID, sim.Round, sim.SendPlan) sim.Omission { return sim.Omission{} }}
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended}, procs, adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DistinctDecisions()) != 1 {
		t.Fatalf("reliable run disagreed: %s", res.DecisionsString())
	}
	c := res.Counters
	if c.OmittedData != 0 || c.OmittedCtrl != 0 || c.OmittedRecv != 0 || c.DroppedData != 0 || c.DroppedCtrl != 0 {
		t.Errorf("reliable run lost messages: %s", c.String())
	}
	if k := res.OmissionFaulty(); k != 0 {
		t.Errorf("%d omission-faulty processes, want 0", k)
	}
}

// badOmitter returns a send-omission mask that does not match the plan.
type badOmitter struct{ adversary.None }

func (badOmitter) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	if p != 1 || r != 1 {
		return sim.Omission{}
	}
	return sim.Omission{Data: make([]bool, len(plan.Data)+3)}
}

func TestMalformedOmissionRejected(t *testing.T) {
	procs := echoSystem(3, false, 1)
	e := mustEngine(t, sim.Config{Model: sim.ModelClassic}, procs, badOmitter{})
	if _, err := e.Run(); !errors.Is(err, sim.ErrBadOmission) {
		t.Fatalf("err = %v, want ErrBadOmission", err)
	}
}

// TestCrashSubsumesOmission pins the consultation contract: the omitter is
// not consulted for a process in the round it crashes.
func TestCrashSubsumesOmission(t *testing.T) {
	procs := echoSystem(3, false, 1)
	crash := adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{1: {Round: 1}})
	consulted := map[sim.ProcID]bool{}
	adv := crashOmitter{crash, func(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
		consulted[p] = true
		return sim.Omission{}
	}}
	e := mustEngine(t, sim.Config{Model: sim.ModelClassic}, procs, adv)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if consulted[1] {
		t.Error("omitter consulted for the crashing process")
	}
	if !consulted[2] || !consulted[3] {
		t.Error("omitter not consulted for surviving processes")
	}
}

// omitFunc adapts a function to sim.Omitter.
type omitFunc func(sim.ProcID, sim.Round, sim.SendPlan) sim.Omission

func (f omitFunc) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	return f(p, r, plan)
}

// crashOmitter crashes per its crash adversary and omits per its omitter.
type crashOmitter struct {
	sim.Adversary
	omitFunc
}

// replay returns the replaying adversary of a fault script.
func replay(t *testing.T, script string) sim.Adversary {
	t.Helper()
	s, err := fuzz.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	return s.Adversary()
}
