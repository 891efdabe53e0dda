package fuzz

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
)

// These tests cover the omission extension of the script grammar, the
// recording walk and the shrinker: send/receive-omission events sampled by
// the generator must replay bit-identically, findings must shrink to minimal
// omission scripts, and the grammar must reject malformed omission clauses.

func TestScriptRoundTripOmission(t *testing.T) {
	cases := []string{
		"p1@r1:so:01/11",
		"p2@r2:ro:101",
		"p3@r1:101/0;p1@r2:so:/0;p2@r2:ro:01",
		"p1@r1:so:0/;p1@r1:ro:0",
	}
	for _, text := range cases {
		s, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if got := s.String(); got != text {
			t.Errorf("round trip %q -> %q", text, got)
		}
	}
	// Events renormalize into (round, process, kind) order: crashes sort
	// before a same-slot send omission, send before receive omissions.
	s, err := Parse("p2@r2:ro:01;p1@r2:so:/0;p3@r1:101/0")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.String(), "p3@r1:101/0;p1@r2:so:/0;p2@r2:ro:01"; got != want {
		t.Errorf("normalize: got %q, want %q", got, want)
	}
	if s.Crashes() != 1 || s.Omissions() != 2 {
		t.Errorf("counts: %d crashes, %d omissions, want 1 and 2", s.Crashes(), s.Omissions())
	}
}

func TestParseRejectsOmission(t *testing.T) {
	cases := []string{
		"p1@r1:so:01",               // no ctrl mask
		"p1@r1:so:02/1",             // bad mask digit
		"p1@r1:ro:",                 // no-op: the empty mask drops nothing
		"p1@r1:so:1/1",              // no-op: all-delivered masks drop nothing
		"p1@r1:ro:111",              // no-op: every sender delivered
		"p0@r1:so:0/1",              // process out of range
		"p1@r0:ro:0",                // round out of range
		"p1@r1:so:0/1;p1@r1:so:0/0", // duplicate send omission
		"p1@r1:ro:1;p1@r1:ro:0",     // duplicate receive omission (and a no-op)
		"p1@r1:10/0;p1@r1:so:0/1",   // omission at the crash round
		"p1@r1:10/0;p1@r3:ro:0",     // omission after the crash round
	}
	for _, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted", text)
		}
	}
	// The mirror image of the crash-then-omission cases is legal: omissions
	// strictly before the crash round.
	if _, err := Parse("p1@r1:so:0/1;p1@r2:10/0"); err != nil {
		t.Errorf("omission before crash rejected: %v", err)
	}
}

// TestRecordedOmissionScriptReplaysIdentically extends the determinism
// keystone to the omission model: a mixed crash+omission walk must reproduce
// bit for bit — rounds, decisions, crash set, omissive set and traffic
// counters — from its recorded script alone.
func TestRecordedOmissionScriptReplaysIdentically(t *testing.T) {
	eng := newEngine(t)
	factory := crwFactory(9, core.Options{})
	gen := Gen{T: 3, CrashProb: 0.2, SendOmitProb: 0.15, RecvOmitProb: 0.1, MaxOmissive: 4}
	for seed := int64(0); seed < 50; seed++ {
		tgt := factory()
		rec := new(recorder)
		rec.reset(seed, gen, len(tgt.Procs))
		want, wantErr := eng.Run(harness.Job{
			Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: rec.adversary(true),
		})
		if want == nil {
			t.Fatalf("seed %d: %v", seed, wantErr)
		}
		want = want.Clone() // the replay below reruns the engine
		script := rec.script()
		if err := script.validate(); err != nil {
			t.Fatalf("seed %d: recorded script %q invalid: %v", seed, script.String(), err)
		}

		tgt2 := factory()
		got, gotErr := eng.Run(harness.Job{
			Model: tgt2.Model, Horizon: tgt2.Horizon, Procs: tgt2.Procs, Adv: script.Adversary(),
		})
		if got == nil {
			t.Fatalf("seed %d replay: %v", seed, gotErr)
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d: engine errors diverged: %v vs %v", seed, wantErr, gotErr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: replay of %q diverged:\n generated %+v\n replayed  %+v",
				seed, script.String(), want, got)
		}
	}
}

// TestOmissionBreaksAgreementAndShrinksToOneEvent is the omission ablation
// at fuzzer level: the faithful algorithm — provably safe under crash faults
// — must fail uniform agreement under omission schedules (the paper's
// reliable-channel assumption at work), and the finding must shrink to a
// single omission event that replays deterministically.
func TestOmissionBreaksAgreementAndShrinksToOneEvent(t *testing.T) {
	eng := newEngine(t)
	factory := crwFactory(6, core.Options{})
	oracle := ConsensusOracle(nil)
	opts := Options{
		Gen:    Gen{T: 0, SendOmitProb: 0.15, RecvOmitProb: 0.1, MaxOmissive: 3},
		Shrink: true,
	}
	var out Outcome
	found := false
	for seed := int64(0); seed < 300 && !found; seed++ {
		o, err := RunSeed(eng, factory, oracle, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		if o.Err != nil && errors.Is(o.Err, check.ErrAgreement) {
			out, found = o, true
		}
	}
	if !found {
		t.Fatal("no agreement violation in 300 omission seeds")
	}
	if out.Faults != 0 {
		t.Errorf("crashes = %d, want 0 (pure omission walk)", out.Faults)
	}
	if out.Shrunk == nil {
		t.Fatal("no shrunk script")
	}
	if got := len(out.Shrunk.Events); got != 1 {
		t.Errorf("shrunk script %q has %d events, want 1", out.Shrunk.String(), got)
	}
	if out.Shrunk.Crashes() != 0 {
		t.Errorf("shrunk script %q contains crash events", out.Shrunk.String())
	}
	if !errors.Is(out.ShrunkErr, check.ErrAgreement) {
		t.Errorf("shrunk script fails with %v, want uniform agreement", out.ShrunkErr)
	}

	// Deterministic replay of the shrunk script: identical results twice.
	var results []*sim.Result
	for i := 0; i < 2; i++ {
		tgt := factory()
		res, runErr := eng.Run(harness.Job{
			Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: out.Shrunk.Adversary(),
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if verr := oracle(tgt.Proposals, res, runErr); !errors.Is(verr, check.ErrAgreement) {
			t.Fatalf("replay %d of %q: %v, want agreement violation", i, out.Shrunk.String(), verr)
		}
		results = append(results, res.Clone())
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("replays diverged: %+v vs %+v", results[0], results[1])
	}
}

// TestShrinkRedeliversOmittedMessages exercises the omission mask pass with
// a synthetic oracle failing whenever any omission happened: the minimum is
// one omission event, and the shrinker must not be able to re-deliver its
// last suppressed message (that would erase the fault and pass the oracle).
func TestShrinkRedeliversOmittedMessages(t *testing.T) {
	eng := newEngine(t)
	factory := crwFactory(5, core.Options{})
	anyOmission := func(_ []sim.Value, res *sim.Result, runErr error) error {
		if runErr != nil {
			return runErr
		}
		if res.OmissionFaulty() > 0 {
			return errors.New("omission observed")
		}
		return nil
	}
	opts := Options{
		Gen:    Gen{T: 0, SendOmitProb: 0.4, RecvOmitProb: 0.3, MaxOmissive: 4},
		Shrink: true,
	}
	out := findViolation(t, eng, factory, anyOmission, opts, 50)
	if out.Shrunk == nil {
		t.Fatal("no shrunk script")
	}
	s := *out.Shrunk
	if len(s.Events) != 1 {
		t.Fatalf("shrunk to %d events (%q), want 1", len(s.Events), s.String())
	}
	ev := s.Events[0]
	if ev.Kind == EventCrash {
		t.Fatalf("shrunk event %s is a crash", ev)
	}
	// Note: an all-delivered omission event would still count as omissive at
	// the engine, so the synthetic oracle cannot force drops to survive; the
	// real guarantee is minimal event count plus deterministic replay, pinned
	// by the agreement-violation test above.
	t.Logf("shrunk script: %q (from %q)", s.String(), out.Script.String())
}
