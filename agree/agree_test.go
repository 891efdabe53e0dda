package agree_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/agree"
)

func TestQuickstartShape(t *testing.T) {
	rep, err := agree.Run(agree.Config{N: 8, Protocol: agree.ProtocolCRW,
		Faults: agree.CoordinatorCrashes(2)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConsensusErr != nil {
		t.Fatal(rep.ConsensusErr)
	}
	if rep.Rounds != 3 {
		t.Errorf("rounds = %d, want 3 (= f+1)", rep.Rounds)
	}
	if rep.Faults() != 2 {
		t.Errorf("faults = %d, want 2", rep.Faults())
	}
}

func TestAllProtocolsFailureFree(t *testing.T) {
	for _, p := range []agree.Protocol{agree.ProtocolCRW, agree.ProtocolEarlyStop, agree.ProtocolFloodSet} {
		rep, err := agree.Run(agree.Config{N: 6, Protocol: p})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if rep.ConsensusErr != nil {
			t.Errorf("%s: %v", p, rep.ConsensusErr)
		}
		if len(rep.Decisions) != 6 {
			t.Errorf("%s: %d deciders, want 6", p, len(rep.Decisions))
		}
	}
}

func TestRoundCountsMatchTheory(t *testing.T) {
	// Failure-free round counts: CRW 1, EarlyStop 2, FloodSet t+1.
	const n, tt = 6, 3
	cases := []struct {
		p    agree.Protocol
		want int
	}{
		{agree.ProtocolCRW, 1},
		{agree.ProtocolEarlyStop, 2},
		{agree.ProtocolFloodSet, tt + 1},
	}
	for _, c := range cases {
		rep, err := agree.Run(agree.Config{N: n, T: tt, Protocol: c.p})
		if err != nil {
			t.Fatalf("%s: %v", c.p, err)
		}
		if rep.MaxDecideRound() != c.want {
			t.Errorf("%s: decide round = %d, want %d", c.p, rep.MaxDecideRound(), c.want)
		}
	}
}

func TestLockstepEngineOption(t *testing.T) {
	rep, err := agree.Run(agree.Config{N: 5, Engine: agree.EngineLockstep,
		Faults: agree.CoordinatorCrashes(1)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConsensusErr != nil {
		t.Fatal(rep.ConsensusErr)
	}
	if rep.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", rep.Rounds)
	}
}

func TestSimulateOnClassicOption(t *testing.T) {
	rep, err := agree.Run(agree.Config{N: 4, SimulateOnClassic: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConsensusErr != nil {
		t.Fatal(rep.ConsensusErr)
	}
	if rep.MacroRounds != 1 {
		t.Errorf("macro rounds = %d, want 1", rep.MacroRounds)
	}
	if rep.Rounds != 4 {
		t.Errorf("micro rounds = %d, want 4 (stride n)", rep.Rounds)
	}
	if _, err := agree.Run(agree.Config{N: 4, Protocol: agree.ProtocolFloodSet,
		SimulateOnClassic: true}); err == nil {
		t.Error("SimulateOnClassic accepted for a classic protocol")
	}
}

func TestTraceOption(t *testing.T) {
	rep, err := agree.Run(agree.Config{N: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Transcript, "decide") {
		t.Errorf("transcript lacks decide events:\n%s", rep.Transcript)
	}
	if _, err := agree.Run(agree.Config{N: 3, Trace: true, Engine: agree.EngineLockstep}); err == nil {
		t.Error("trace accepted with lockstep engine")
	}
}

func TestScriptedFaults(t *testing.T) {
	rep, err := agree.Run(agree.Config{N: 4, Faults: agree.ScriptedFaults(map[int]agree.CrashPlan{
		1: {Round: 1, DeliverAllData: true, CtrlPrefix: 1},
	})})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConsensusErr != nil {
		t.Fatal(rep.ConsensusErr)
	}
	if rep.DecideRound[4] != 1 || rep.DecideRound[2] != 2 {
		t.Errorf("decide rounds = %v, want p4@1, p2@2", rep.DecideRound)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := agree.Run(agree.Config{N: 0}); err == nil {
		t.Error("accepted N=0")
	}
	if _, err := agree.Run(agree.Config{N: 3, Protocol: "bogus"}); err == nil {
		t.Error("accepted unknown protocol")
	}
	if _, err := agree.Run(agree.Config{N: 3, Engine: "bogus"}); err == nil {
		t.Error("accepted unknown engine")
	}
	if _, err := agree.Run(agree.Config{N: 3, Proposals: []int64{1}}); err == nil {
		t.Error("accepted proposal count mismatch")
	}
}

// TestOutOfRangeInputsAreErrors: a resilience bound outside [0, N) or a
// negative bit width is rejected by every entry point that takes one, not
// silently replaced by its default.
func TestOutOfRangeInputsAreErrors(t *testing.T) {
	for _, cfg := range []agree.Config{
		{N: 4, Protocol: agree.ProtocolFloodSet, T: 50},
		{N: 4, Protocol: agree.ProtocolEarlyStop, T: 4},
		{N: 4, T: -1},
		{N: 4, Bits: -3},
	} {
		if rep, err := agree.Run(cfg); err == nil {
			t.Errorf("Run %+v: ran %d rounds, want an error", cfg, rep.Rounds)
		}
	}
	for _, cfg := range []agree.FuzzConfig{{N: 4, T: 9, Seeds: 1}, {N: 4, T: -1, Seeds: 1}} {
		if _, err := agree.Fuzz(cfg); err == nil {
			t.Errorf("Fuzz %+v: want an error", cfg)
		}
	}
	if _, err := agree.Explore(agree.ExploreConfig{N: 3, T: 3}); err == nil {
		t.Error("Explore with T = N: want an error")
	}
	if _, err := agree.Serve(agree.ServeConfig{N: 4, Bits: -3, Workload: agree.FixedArrivals(1, 1),
		MaxCommands: 10}); err == nil {
		t.Error("Serve with Bits=-3: want an error")
	}
}

func TestCustomProposals(t *testing.T) {
	rep, err := agree.Run(agree.Config{N: 3, Proposals: []int64{7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range rep.Decisions {
		if v != 7 {
			t.Errorf("p%d decided %d, want 7 (p1's proposal)", id, v)
		}
	}
}

func TestPropertyFPlus1AcrossConfigs(t *testing.T) {
	// Property: for any n in [2,16] and f < n, the worst-case coordinator
	// killer yields decision at exactly round f+1 with uniform consensus.
	prop := func(nRaw, fRaw uint8) bool {
		n := int(nRaw%15) + 2
		f := int(fRaw) % n
		if f == n { // keep at least one process alive
			f = n - 1
		}
		rep, err := agree.Run(agree.Config{N: n, Faults: agree.CoordinatorCrashes(f)})
		if err != nil || rep.ConsensusErr != nil {
			return false
		}
		return rep.MaxDecideRound() == f+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEarlyStopBound(t *testing.T) {
	// Property: the classic baseline decides within min(f+2, t+1) under
	// random faults, and consensus always holds.
	prop := func(nRaw, seedRaw uint8) bool {
		n := int(nRaw%12) + 3
		tt := n - 1
		rep, err := agree.Run(agree.Config{N: n, T: tt, Protocol: agree.ProtocolEarlyStop,
			Faults: agree.RandomFaults(int64(seedRaw), 0.2, tt)})
		if err != nil || rep.ConsensusErr != nil {
			return false
		}
		bound := rep.Faults() + 2
		if tt+1 < bound {
			bound = tt + 1
		}
		return rep.MaxDecideRound() <= bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCRWUnderRandomFaults(t *testing.T) {
	// Property: uniform consensus and the f+1 bound hold under arbitrary
	// random fault injection, on both engines.
	prop := func(nRaw, seedRaw uint8, useLockstep bool) bool {
		n := int(nRaw%12) + 3
		engine := agree.EngineDeterministic
		if useLockstep {
			// The lockstep engine serializes adversary calls in scheduling
			// order; random adversaries are order-dependent, so restrict the
			// property to the deterministic engine for fault injection and
			// exercise lockstep failure-free.
			rep, err := agree.Run(agree.Config{N: n, Engine: agree.EngineLockstep})
			return err == nil && rep.ConsensusErr == nil && rep.MaxDecideRound() == 1
		}
		rep, err := agree.Run(agree.Config{N: n, Engine: engine,
			Faults: agree.RandomFaults(int64(seedRaw), 0.25, n-1)})
		if err != nil || rep.ConsensusErr != nil {
			return false
		}
		return rep.MaxDecideRound() <= rep.Faults()+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDiagramOption(t *testing.T) {
	rep, err := agree.Run(agree.Config{N: 4, Diagram: true,
		Faults: agree.CoordinatorCrashes(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CRASH p1", "DECIDE", "legend"} {
		if !strings.Contains(rep.Diagram, want) {
			t.Errorf("diagram lacks %q:\n%s", want, rep.Diagram)
		}
	}
	// Diagram implies Trace.
	if rep.Transcript == "" {
		t.Error("Diagram did not populate the transcript")
	}
}
