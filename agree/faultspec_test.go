package agree_test

import (
	"math"
	"strings"
	"testing"

	"repro/agree"
)

// TestFaultSpecValidation is the table-driven edge-case audit of FaultSpec
// normalization. Every rejected case below used to be silently clamped or
// ignored (a negative f crashed nobody, f >= n crashed everybody reachable,
// an out-of-range control prefix became 0, a scripted crash of a
// nonexistent process never fired), making misconfigured campaigns look
// like passing ones; they are configuration errors now.
func TestFaultSpecValidation(t *testing.T) {
	const n = 4
	cases := []struct {
		name    string
		faults  agree.FaultSpec
		wantErr string // substring of the error; "" = must be accepted
	}{
		{"no faults", agree.NoFaults(), ""},
		{"coordinator f=0", agree.CoordinatorCrashes(0), ""},
		{"coordinator f=n-1", agree.CoordinatorCrashes(n - 1), ""},
		{"coordinator f negative", agree.CoordinatorCrashes(-1), "negative"},
		{"coordinator f=n", agree.CoordinatorCrashes(n), "survivor"},
		{"coordinator f>n", agree.CoordinatorCrashes(n + 3), "survivor"},
		{"delivering ctrl=CtrlAll", agree.CoordinatorCrashesDelivering(1, agree.CtrlAll), ""},
		{"delivering ctrl=n-1", agree.CoordinatorCrashesDelivering(1, n-1), ""},
		{"delivering ctrl below CtrlAll", agree.CoordinatorCrashesDelivering(1, -2), "control prefix"},
		{"delivering ctrl=n", agree.CoordinatorCrashesDelivering(1, n), "control prefix"},
		{"random prob=0", agree.RandomFaults(1, 0, 2), ""},
		{"random prob=1", agree.RandomFaults(1, 1, 2), ""},
		{"random prob negative", agree.RandomFaults(1, -0.1, 2), "probability"},
		{"random prob>1", agree.RandomFaults(1, 1.5, 2), "probability"},
		{"random max negative", agree.RandomFaults(1, 0.5, -1), "negative"},
		{"random max=n", agree.RandomFaults(1, 0.5, n), "survivor"},
		{"script in range", agree.ScriptedFaults(map[int]agree.CrashPlan{2: {Round: 1}}), ""},
		{"script round 0", agree.ScriptedFaults(map[int]agree.CrashPlan{2: {Round: 0}}), "1-based"},
		{"script round negative", agree.ScriptedFaults(map[int]agree.CrashPlan{2: {Round: -3}}), "1-based"},
		{"script nonexistent proc", agree.ScriptedFaults(map[int]agree.CrashPlan{n + 5: {Round: 1}}), "nonexistent"},
		{"script proc 0", agree.ScriptedFaults(map[int]agree.CrashPlan{0: {Round: 1}}), "nonexistent"},
		{"script ctrl below CtrlAll", agree.ScriptedFaults(map[int]agree.CrashPlan{2: {Round: 1, CtrlPrefix: -4}}), "control prefix"},
		{"script ctrl=n", agree.ScriptedFaults(map[int]agree.CrashPlan{2: {Round: 1, DeliverAllData: true, CtrlPrefix: n}}), "control prefix"},
		{"script crashes everyone", agree.ScriptedFaults(map[int]agree.CrashPlan{
			1: {Round: 1}, 2: {Round: 1}, 3: {Round: 1}, 4: {Round: 1}}), "survivor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := agree.Run(agree.Config{N: n, Faults: tc.faults})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if rep.ConsensusErr != nil {
					t.Fatalf("consensus: %v", rep.ConsensusErr)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestOmissionFaultSpecValidation mirrors TestFaultSpecValidation for the
// omission-fault constructors: probabilities outside [0, 1], out-of-range
// processes and rounds, oversized receive masks, duplicate per-round plans
// and omissions scheduled at or after a crash are configuration errors, not
// silently inert scenarios.
func TestOmissionFaultSpecValidation(t *testing.T) {
	const n = 4
	plan := func(p int, ops ...agree.OmissionPlan) map[int][]agree.OmissionPlan {
		return map[int][]agree.OmissionPlan{p: ops}
	}
	cases := []struct {
		name    string
		faults  agree.FaultSpec
		wantErr string // substring of the error; "" = must be accepted
	}{
		{"random ok", agree.OmissionFaults(1, 0.5, 0.5, 2), ""},
		{"random probs at bounds", agree.OmissionFaults(1, 0, 1, n), ""},
		{"random send prob negative", agree.OmissionFaults(1, -0.1, 0, 1), "probability"},
		{"random send prob >1", agree.OmissionFaults(1, 1.5, 0, 1), "probability"},
		{"random recv prob negative", agree.OmissionFaults(1, 0, -0.5, 1), "probability"},
		{"random recv prob >1", agree.OmissionFaults(1, 0, 2, 1), "probability"},
		{"random budget negative", agree.OmissionFaults(1, 0.5, 0, -1), "negative"},
		{"random budget >n", agree.OmissionFaults(1, 0.5, 0, n+1), "exceeds"},
		{"scripted ok", agree.ScriptedOmissions(plan(2, agree.OmissionPlan{Round: 1, DropAllSend: true})), ""},
		{"scripted repeatable rounds", agree.ScriptedOmissions(plan(2,
			agree.OmissionPlan{Round: 1, DropAllSend: true},
			agree.OmissionPlan{Round: 2, DropAllRecv: true})), ""},
		{"scripted nonexistent proc", agree.ScriptedOmissions(plan(n+3, agree.OmissionPlan{Round: 1})), "nonexistent"},
		{"scripted proc 0", agree.ScriptedOmissions(plan(0, agree.OmissionPlan{Round: 1})), "nonexistent"},
		{"scripted round 0", agree.ScriptedOmissions(plan(2, agree.OmissionPlan{Round: 0})), "1-based"},
		{"scripted round negative", agree.ScriptedOmissions(plan(2, agree.OmissionPlan{Round: -2})), "1-based"},
		{"scripted duplicate round", agree.ScriptedOmissions(plan(2,
			agree.OmissionPlan{Round: 1, DropAllSend: true},
			agree.OmissionPlan{Round: 1, DropAllRecv: true})), "two omission plans"},
		{"scripted recv mask too long", agree.ScriptedOmissions(plan(2,
			agree.OmissionPlan{Round: 1, Recv: make([]bool, n+1)})), "senders"},
		{"mixed ok", agree.CrashesWithOmissions(
			map[int]agree.CrashPlan{3: {Round: 2}},
			map[int][]agree.OmissionPlan{3: {{Round: 1, DropAllRecv: true}}}), ""},
		{"mixed omission at crash round", agree.CrashesWithOmissions(
			map[int]agree.CrashPlan{3: {Round: 1}},
			map[int][]agree.OmissionPlan{3: {{Round: 1, DropAllSend: true}}}), "at or after its crash round"},
		{"mixed omission after crash round", agree.CrashesWithOmissions(
			map[int]agree.CrashPlan{3: {Round: 1}},
			map[int][]agree.OmissionPlan{3: {{Round: 2, DropAllSend: true}}}), "at or after its crash round"},
		{"mixed crash rules still apply", agree.CrashesWithOmissions(
			map[int]agree.CrashPlan{n + 1: {Round: 1}}, nil), "nonexistent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := agree.Run(agree.Config{N: n, Faults: tc.faults})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				// Omission scenarios may legitimately violate consensus —
				// that is the whole point of the fault model — so only the
				// configuration acceptance is asserted, not the verdict.
				_ = rep
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestReplayFaultsOmissionValidation covers the fuzz-script spec: omission
// clauses referencing nonexistent processes are rejected at Run time exactly
// like crash clauses.
func TestReplayFaultsOmissionValidation(t *testing.T) {
	const n = 4
	cases := []struct {
		script  string
		wantErr string
	}{
		{"p2@r1:so:0/", ""},
		{"p2@r1:ro:0111", ""},
		{"p9@r1:ro:0", "nonexistent"},
		{"p2@r1:ro:01111", "senders"},
	}
	for _, tc := range cases {
		spec, err := agree.ReplayFaults(tc.script)
		if err != nil {
			t.Fatalf("ReplayFaults(%q): %v", tc.script, err)
		}
		_, err = agree.Run(agree.Config{N: n, Faults: spec})
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("Run with %q rejected: %v", tc.script, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Run with %q: err %v, want substring %q", tc.script, err, tc.wantErr)
		}
	}
}

// TestOmissionBoundaryBehavior pins the accepted boundary semantics: a
// zero-probability random omission spec omits nothing, and the scripted
// single-DATA omission reproduces the canonical reliable-channel
// counterexample (agreement broken with zero crashes) with the omissive
// process reported in the Report.
func TestOmissionBoundaryBehavior(t *testing.T) {
	rep, err := agree.Run(agree.Config{N: 6, Faults: agree.OmissionFaults(7, 0, 0, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OmissionFaulty() != 0 || rep.ConsensusErr != nil {
		t.Errorf("prob 0 spec: %d omissive, consensus %v", rep.OmissionFaulty(), rep.ConsensusErr)
	}

	rep, err = agree.Run(agree.Config{N: 3, Faults: agree.ScriptedOmissions(map[int][]agree.OmissionPlan{
		1: {{Round: 1, SendData: []bool{false}}}, // DATA p1->p2 omitted, COMMIT flows
	})})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConsensusErr == nil {
		t.Error("single-DATA omission did not break consensus")
	}
	if rep.Faults() != 0 {
		t.Errorf("crashes = %d, want 0", rep.Faults())
	}
	if rep.OmissionFaulty() != 1 || rep.Omissive[1] != 1 {
		t.Errorf("omissive = %v, want p1 with 1 omissive round", rep.Omissive)
	}
}

// TestFaultSpecBoundaryBehavior pins the semantics of the accepted
// boundary cases: probability 0 never crashes, probability 1 crashes
// exactly the budget, and a full CtrlAll prefix delivers the whole control
// sequence (crashing the round-1 coordinator after a complete send phase
// still lets everyone decide in round 1).
func TestFaultSpecBoundaryBehavior(t *testing.T) {
	rep, err := agree.Run(agree.Config{N: 6, Faults: agree.RandomFaults(7, 0, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults() != 0 {
		t.Errorf("prob 0 crashed %d processes", rep.Faults())
	}

	rep, err = agree.Run(agree.Config{N: 6, Faults: agree.RandomFaults(7, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults() != 2 {
		t.Errorf("prob 1 with budget 2 crashed %d processes, want exactly 2", rep.Faults())
	}
	if rep.ConsensusErr != nil {
		t.Errorf("consensus: %v", rep.ConsensusErr)
	}

	rep, err = agree.Run(agree.Config{N: 6, Faults: agree.CoordinatorCrashesDelivering(1, agree.CtrlAll)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConsensusErr != nil {
		t.Fatal(rep.ConsensusErr)
	}
	if rep.MaxDecideRound() != 1 {
		t.Errorf("full-delivery coordinator crash delayed decision to round %d, want 1", rep.MaxDecideRound())
	}
}

// TestProbabilitiesRejectNaN pins the probability checks against NaN, which
// passes both p < 0 and p > 1: a NaN fault or campaign probability is a
// configuration error, not a silently fault-free run.
func TestProbabilitiesRejectNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"RandomFaults prob", func() error {
			_, err := agree.Run(agree.Config{N: 4, Faults: agree.RandomFaults(1, nan, 2)})
			return err
		}, "crash probability NaN"},
		{"OmissionFaults send prob", func() error {
			_, err := agree.Run(agree.Config{N: 4, Faults: agree.OmissionFaults(1, nan, 0, 2)})
			return err
		}, "send-omission probability NaN"},
		{"OmissionFaults recv prob", func() error {
			_, err := agree.Run(agree.Config{N: 4, Faults: agree.OmissionFaults(1, 0, nan, 2)})
			return err
		}, "receive-omission probability NaN"},
		{"FuzzConfig.CrashProb", func() error {
			_, err := agree.Fuzz(agree.FuzzConfig{N: 4, CrashProb: nan, Seeds: 2})
			return err
		}, "crash probability NaN"},
		{"FuzzConfig.SendOmitProb", func() error {
			_, err := agree.Fuzz(agree.FuzzConfig{N: 4, SendOmitProb: nan, Seeds: 2})
			return err
		}, "send-omission probability NaN"},
		{"FuzzConfig.RecvOmitProb", func() error {
			_, err := agree.Fuzz(agree.FuzzConfig{N: 4, RecvOmitProb: nan, Seeds: 2})
			return err
		}, "receive-omission probability NaN"},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
