package agree_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/agree"
)

// TestTimedEngineReport runs one configuration on the timed engine and pins
// the public contract: a measured SimTime consistent with the latency
// parameters, and a report otherwise identical to the deterministic
// engine's.
func TestTimedEngineReport(t *testing.T) {
	cfg := agree.Config{N: 6, Faults: agree.CoordinatorCrashes(2)}
	want, err := agree.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = agree.EngineTimed
	cfg.Latency = agree.FixedLatency(1, 0.25)
	got, err := agree.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.MaxDecideRound() != want.MaxDecideRound() ||
		got.Counters != want.Counters || len(got.Decisions) != len(want.Decisions) {
		t.Errorf("timed report diverges from deterministic: %+v vs %+v", got, want)
	}
	if want.SimTime != 0 {
		t.Errorf("deterministic report has SimTime %g, want 0", want.SimTime)
	}
	if wantTime := float64(got.Rounds) * 1.25; math.Abs(got.SimTime-wantTime) > 1e-9 {
		t.Errorf("SimTime = %g, want rounds·(D+δ) = %g", got.SimTime, wantTime)
	}
	if got.ConsensusErr != nil {
		t.Errorf("consensus violated: %v", got.ConsensusErr)
	}
}

func TestTimedEngineTrace(t *testing.T) {
	rep, err := agree.Run(agree.Config{N: 4, Engine: agree.EngineTimed, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Transcript, "decide") || !strings.Contains(rep.Transcript, "t=") {
		t.Errorf("timed transcript lacks timestamped events:\n%s", rep.Transcript)
	}
}

func TestLatencySpecValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  agree.Config
		want string
	}{
		{"latency on round engine", agree.Config{N: 4, Latency: agree.FixedLatency(1, 0.1)}, "timed capability"},
		{"latency on lockstep", agree.Config{N: 4, Engine: agree.EngineLockstep, Latency: agree.FixedLatency(1, 0.1)}, "timed capability"},
		{"non-positive D", agree.Config{N: 4, Engine: agree.EngineTimed, Latency: agree.FixedLatency(0, 0.1)}, "must be positive"},
		{"negative delta", agree.Config{N: 4, Engine: agree.EngineTimed, Latency: agree.FixedLatency(1, -0.1)}, "negative"},
		{"unknown profile", agree.Config{N: 4, Engine: agree.EngineTimed, Latency: agree.ProfileLatency("token-ring")}, "unknown LAN profile"},
		{"negative floor", agree.Config{N: 4, Engine: agree.EngineTimed, Latency: agree.JitterLatency(1, 1, 0.1, -0.5, 0.2)}, "floor"},
		{"negative spread", agree.Config{N: 4, Engine: agree.EngineTimed, Latency: agree.JitterLatency(1, 1, 0.1, 0.5, -0.2)}, "spread"},
	}
	for _, tc := range cases {
		_, err := agree.Run(tc.cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestProfileLatencyRun(t *testing.T) {
	for _, name := range []string{"100m", "1g", "10g"} {
		rep, err := agree.Run(agree.Config{N: 5, Engine: agree.EngineTimed,
			Latency: agree.ProfileLatency(name), Faults: agree.CoordinatorCrashes(1)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.SimTime <= 0 {
			t.Errorf("%s: SimTime %g", name, rep.SimTime)
		}
		if rep.Counters.Late != 0 {
			t.Errorf("%s: %d late messages on an in-bound LAN profile", name, rep.Counters.Late)
		}
		if rep.MaxDecideRound() != 2 {
			t.Errorf("%s: decide round %d, want f+1 = 2", name, rep.MaxDecideRound())
		}
	}
}

// TestTimedSweepCrossCheck pins the cross-check semantics around latency:
// within-bound specs (even jittered) are compared against the round
// engines; out-of-bound specs are skipped like order-sensitive faults.
func TestTimedSweepCrossCheck(t *testing.T) {
	configs := []agree.Config{
		{N: 5, Engine: agree.EngineTimed, Faults: agree.CoordinatorCrashes(2),
			Latency: agree.JitterLatency(9, 1, 0.1, 0.1, 0.8)}, // floor+spread ≤ D: neutral
		{N: 5, Engine: agree.EngineTimed, Faults: agree.NoFaults(),
			Latency: agree.JitterLatency(9, 1, 0.1, 0.5, 1.5)}, // out of bound: timing faults
	}
	sr := agree.Sweep(configs, agree.SweepOptions{Workers: 1, CrossCheck: true})
	if sr.Items[0].Err != nil {
		t.Fatalf("within-bound item: %v", sr.Items[0].Err)
	}
	xc := sr.Items[0].CrossChecked
	if len(xc) != 2 || xc[0] != agree.EngineDeterministic || xc[1] != agree.EngineLockstep {
		t.Errorf("within-bound jitter cross-checked on %v, want [deterministic lockstep]", xc)
	}
	if sr.Items[1].Err != nil {
		t.Fatalf("out-of-bound item: %v", sr.Items[1].Err)
	}
	if len(sr.Items[1].CrossChecked) != 0 {
		t.Errorf("out-of-bound jitter cross-checked on %v, want none", sr.Items[1].CrossChecked)
	}
}

func TestEnginesListing(t *testing.T) {
	engs := agree.Engines()
	if len(engs) != 3 {
		t.Fatalf("Engines() = %v, want 3 entries", engs)
	}
	byKind := map[agree.EngineKind]agree.EngineInfo{}
	for _, e := range engs {
		byKind[e.Kind] = e
	}
	if e := byKind[agree.EngineTimed]; !e.Timed || !e.Trace || !e.Deterministic || !e.Reusable {
		t.Errorf("timed engine info = %+v", e)
	}
	if e := byKind[agree.EngineDeterministic]; e.Timed || !e.Reusable {
		t.Errorf("deterministic engine info = %+v", e)
	}
}

// TestTimedFuzzCampaign runs a crash campaign on the timed engine with
// cross-checking: the faithful algorithm must produce no findings, and
// every seed replays identically across all three engines.
func TestTimedFuzzCampaign(t *testing.T) {
	rep, err := agree.Fuzz(agree.FuzzConfig{
		N: 8, T: 3, Seeds: 60, Engine: agree.EngineTimed,
		Latency: agree.JitterLatency(4, 1, 0.1, 0.2, 0.7), CrossCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("timed campaign found %d violations in the faithful algorithm: %+v",
			len(rep.Findings), rep.Findings[0])
	}
	if rep.MaxRounds == 0 {
		t.Error("campaign executed no rounds")
	}
}

// TestTimingFaultFuzzFindsViolations is the timing-faults-as-scenarios
// claim: an out-of-bound latency model starves messages, the walk's
// schedule is judged on consensus alone, and the campaign finds (and
// replay-verifies) violations without any crash or omission event — the
// fault is purely temporal.
func TestTimingFaultFuzzFindsViolations(t *testing.T) {
	rep, err := agree.Fuzz(agree.FuzzConfig{
		N: 6, T: 1, Seeds: 40, CrashProb: 0.05, Engine: agree.EngineTimed,
		Latency: agree.JitterLatency(11, 1, 0.1, 0.6, 2.4), // ~58% of messages late
		Shrink:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings under a latency model that starves most messages")
	}
	// Fatal replay divergence would have surfaced as err; reaching here
	// means every finding reproduced from its recorded script under the
	// pure per-message latency hash.
}

func TestFuzzRejectsNonDeterministicEngine(t *testing.T) {
	if _, err := agree.Fuzz(agree.FuzzConfig{N: 4, Seeds: 1, Engine: agree.EngineLockstep}); err == nil ||
		!strings.Contains(err.Error(), "not deterministic") {
		t.Errorf("lockstep fuzz campaign not rejected: %v", err)
	}
	if _, err := agree.Fuzz(agree.FuzzConfig{N: 4, Seeds: 1, Latency: agree.FixedLatency(1, 0.1)}); err == nil ||
		!strings.Contains(err.Error(), "timed capability") {
		t.Errorf("latency on deterministic fuzz campaign not rejected: %v", err)
	}
}

// TestTimedFuzzReplayHonorsEngineAndLatency pins the reproduce contract of
// timed campaigns: FuzzReplayScript must execute on the campaign's engine
// under the campaign's latency model, so a timing-fault finding — whose
// script may be empty or name only an incidental crash — reproduces its
// violation instead of silently passing on the deterministic round engine.
func TestTimedFuzzReplayHonorsEngineAndLatency(t *testing.T) {
	cfg := agree.FuzzConfig{
		N: 6, T: 1, Seeds: 40, CrashProb: 0.05, Engine: agree.EngineTimed,
		Latency: agree.JitterLatency(11, 1, 0.1, 0.6, 2.4),
	}
	rep, err := agree.Fuzz(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings to replay")
	}
	finding := rep.Findings[0]
	replay, err := agree.FuzzReplayScript(cfg, finding.Script, false)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Err == nil {
		t.Fatalf("replaying finding %q under the campaign config reported no violation (engine/latency dropped?)", finding.Script)
	}
	// The same script without the campaign's latency model runs on plain
	// round semantics and must NOT reproduce — that contrast is the point.
	plain := cfg
	plain.Engine, plain.Latency = "", agree.LatencySpec{}
	if replayPlain, err := agree.FuzzReplayScript(plain, finding.Script, false); err == nil && replayPlain.Err != nil {
		t.Logf("note: script %q also violates on the round engine (crash-induced), contrast not observable for this seed", finding.Script)
	}
}

// TestLatencySpecRejectsNonFinite feeds NaN, +Inf and -Inf into every
// parameter of the fixed and jitter specs, through Run and through Fuzz:
// each must be a configuration error naming the parameter, not a run that
// fails a law audit (NaN passes every ordered check) or an engine error.
func TestLatencySpecRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			param string
			spec  agree.LatencySpec
		}{
			{"D", agree.FixedLatency(bad, 0.1)},
			{"δ", agree.FixedLatency(1, bad)},
			{"D", agree.JitterLatency(1, bad, 0.1, 0.5, 0.2)},
			{"δ", agree.JitterLatency(1, 1, bad, 0.5, 0.2)},
			{"floor", agree.JitterLatency(1, 1, 0.1, bad, 0.2)},
			{"spread", agree.JitterLatency(1, 1, 0.1, 0.5, bad)},
		} {
			want := fmt.Sprintf("agree: latency %s=%g must be finite", tc.param, bad)
			_, err := agree.Run(agree.Config{N: 4, Engine: agree.EngineTimed, Latency: tc.spec})
			if err == nil || err.Error() != want {
				t.Errorf("Run with %s=%g: error %v, want %q", tc.param, bad, err, want)
			}
			_, err = agree.Fuzz(agree.FuzzConfig{N: 4, Engine: agree.EngineTimed, Latency: tc.spec, Seeds: 2})
			if err == nil || err.Error() != want {
				t.Errorf("Fuzz with %s=%g: error %v, want %q", tc.param, bad, err, want)
			}
		}
	}
}
