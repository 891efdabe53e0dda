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

// crwFactory builds a fresh paper-algorithm system of n processes per call.
func crwFactory(n int, opts core.Options) Factory {
	return func() Target {
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = sim.Value(10 + i)
		}
		model := sim.ModelExtended
		if opts.CommitAsData {
			model = sim.ModelClassic
		}
		return Target{
			Model:     model,
			Horizon:   sim.Round(n + 2),
			Procs:     core.NewSystem(props, opts),
			Proposals: props,
		}
	}
}

// newEngine returns a fresh deterministic harness engine.
func newEngine(t *testing.T) harness.Engine {
	t.Helper()
	eng, err := harness.New(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestScriptRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"p1@r1:/0",
		"p3@r1:101/0",
		"p2@r2:111/2;p4@r3:10/0",
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
	// Events are renormalized into (round, process) order.
	s, err := Parse("p4@r3:10/0;p2@r2:111/2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.String(), "p2@r2:111/2;p4@r3:10/0"; got != want {
		t.Errorf("normalize: got %q, want %q", got, want)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		"p1@r1",               // no mask/ctrl
		"p1@r1:102/0",         // bad mask digit
		"p0@r1:1/0",           // process out of range
		"p1@r0:1/0",           // round out of range
		"p1@r1:1/-1",          // negative control prefix
		"p1@r1:10/1",          // control prefix with partial data
		"p1@r1:1/0;p1@r2:1/0", // double crash
		"bogus",
	}
	for _, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted", text)
		}
	}
}

// TestRecordedScriptReplaysIdentically is the determinism keystone: the
// schedule a random walk records must reproduce the walk's run bit for bit
// when replayed — same rounds, decisions, crash set and traffic counters.
func TestRecordedScriptReplaysIdentically(t *testing.T) {
	eng := newEngine(t)
	factory := crwFactory(9, core.Options{})
	for seed := int64(0); seed < 50; seed++ {
		tgt := factory()
		rec := new(recorder)
		rec.reset(seed, Gen{T: 4, CrashProb: 0.3}, len(tgt.Procs))
		want, runErr := eng.Run(harness.Job{
			Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: rec.adversary(false),
		})
		if runErr != nil {
			t.Fatalf("seed %d: %v", seed, runErr)
		}
		want = want.Clone() // the replay below reruns the engine
		script := rec.script()

		tgt2 := factory()
		got, runErr := eng.Run(harness.Job{
			Model: tgt2.Model, Horizon: tgt2.Horizon, Procs: tgt2.Procs, Adv: script.Adversary(),
		})
		if runErr != nil {
			t.Fatalf("seed %d replay: %v", seed, runErr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: replay of %q diverged:\n generated %+v\n replayed  %+v",
				seed, script.String(), want, got)
		}
	}
}

// TestFaithfulAlgorithmSurvivesFuzzing fuzzes the paper's algorithm at a
// size far beyond the exhaustive explorer's reach: no seed may violate
// uniform consensus or the f+1 round bound.
func TestFaithfulAlgorithmSurvivesFuzzing(t *testing.T) {
	eng := newEngine(t)
	factory := crwFactory(16, core.Options{})
	oracle := ConsensusOracle(check.BoundFPlus1)
	for seed := int64(0); seed < 200; seed++ {
		out, err := RunSeed(eng, factory, oracle, seed, Options{Gen: Gen{T: 8, CrashProb: 0.2}})
		if err != nil {
			t.Fatal(err)
		}
		if out.Err != nil {
			t.Fatalf("seed %d: false positive %v (script %q)", seed, out.Err, out.Script.String())
		}
	}
}

// findViolation fuzzes seeds until the oracle flags one, returning the
// outcome (with its shrunk script).
func findViolation(t *testing.T, eng harness.Engine, factory Factory, oracle Oracle, opts Options, maxSeeds int64) Outcome {
	t.Helper()
	for seed := int64(0); seed < maxSeeds; seed++ {
		out, err := RunSeed(eng, factory, oracle, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		if out.Err != nil {
			return out
		}
	}
	t.Fatalf("no violation in %d seeds", maxSeeds)
	return Outcome{}
}

// TestPlantedAgreementBugIsCaughtAndShrunk plants the CommitAsData mutation
// (the commit rides the data step, so a crash can deliver the commit without
// the data — uniform agreement provably breaks, experiment E10) and requires
// the fuzzer to catch it and shrink the schedule to at most 3 crash events
// that replay deterministically.
func TestPlantedAgreementBugIsCaughtAndShrunk(t *testing.T) {
	eng := newEngine(t)
	factory := crwFactory(4, core.Options{CommitAsData: true})
	oracle := ConsensusOracle(nil)
	out := findViolation(t, eng, factory, oracle, Options{
		Gen: Gen{T: 3, CrashProb: 0.35}, Shrink: true,
	}, 500)
	if !errors.Is(out.Err, check.ErrAgreement) {
		t.Fatalf("violation is %v, want uniform agreement", out.Err)
	}
	if out.Shrunk == nil {
		t.Fatal("no shrunk script")
	}
	if got := out.Shrunk.Crashes(); got > 3 {
		t.Errorf("shrunk script has %d crash events (%q), want <= 3", got, out.Shrunk.String())
	}
	if !errors.Is(out.ShrunkErr, check.ErrAgreement) {
		t.Errorf("shrunk script fails with %v, want uniform agreement", out.ShrunkErr)
	}
	if out.Shrunk.Crashes() > out.Script.Crashes() {
		t.Errorf("shrinker grew the script: %d -> %d events", out.Script.Crashes(), out.Shrunk.Crashes())
	}

	// The shrunk script must replay deterministically: two fresh replays
	// produce identical results and the identical violation.
	var errs []string
	var results []*sim.Result
	for i := 0; i < 2; i++ {
		tgt := factory()
		res, runErr := eng.Run(harness.Job{
			Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: out.Shrunk.Adversary(),
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		verr := oracle(tgt.Proposals, res, runErr)
		if verr == nil {
			t.Fatalf("replay %d of shrunk script %q passed", i, out.Shrunk.String())
		}
		errs = append(errs, verr.Error())
		results = append(results, res.Clone())
	}
	if errs[0] != errs[1] {
		t.Errorf("replays diverged: %q vs %q", errs[0], errs[1])
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("replayed results diverged: %+v vs %+v", results[0], results[1])
	}
}

// TestPlantedOracleMutationIsCaught mutates the oracle instead of the
// protocol: the f+1 round-bound check is weakened to the classic
// min(f+2, t+1) bound. On the ascending-commit-order ablation — whose
// executions can decide after f+1 rounds — the faithful oracle must catch
// violations the weakened oracle misses, and the first such finding must
// shrink to at most 3 crash events that replay deterministically.
//
// (A weakened *agreement* check — non-uniform, survivors only — is not
// observable at this engine's granularity: deciding and halting are atomic
// at the end of the receive phase and the adversary is only consulted for
// alive, unhalted processes, so no process can ever crash after deciding
// and uniform agreement coincides with plain agreement. The round bound is
// the weakest oracle clause with an observable mutation.)
func TestPlantedOracleMutationIsCaught(t *testing.T) {
	eng := newEngine(t)
	const n, tt = 5, 3
	factory := crwFactory(n, core.Options{Order: core.OrderAscending})
	faithful := ConsensusOracle(check.BoundFPlus1)
	weakened := ConsensusOracle(check.BoundClassic(tt))

	var caught, missed int
	var first *Outcome
	opts := Options{Gen: Gen{T: tt, CrashProb: 0.35}, Shrink: true}
	for seed := int64(0); seed < 500; seed++ {
		out, err := RunSeed(eng, factory, faithful, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		if out.Err == nil {
			continue
		}
		if !errors.Is(out.Err, check.ErrRoundBound) {
			t.Fatalf("seed %d: ascending-order ablation violated %v, want only the round bound", seed, out.Err)
		}
		caught++
		// Re-run the same recorded schedule under the weakened oracle.
		tgt := factory()
		res, runErr := eng.Run(harness.Job{
			Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: out.Script.Adversary(),
		})
		if weakened(tgt.Proposals, res, runErr) == nil {
			missed++
			if first == nil {
				o := out
				first = &o
			}
		}
	}
	if caught == 0 {
		t.Fatal("faithful oracle caught nothing on the ascending-order ablation")
	}
	if missed == 0 {
		t.Fatalf("weakened oracle missed none of %d round-bound violations; the planted mutation is not observable", caught)
	}
	t.Logf("faithful oracle caught %d violations, weakened bound missed %d of them", caught, missed)

	if first.Shrunk == nil {
		t.Fatal("no shrunk script for the first missed finding")
	}
	if got := first.Shrunk.Crashes(); got > 3 {
		t.Errorf("shrunk script has %d crash events (%q), want <= 3", got, first.Shrunk.String())
	}
	// Deterministic replay: two fresh replays agree on result and verdict.
	var results []*sim.Result
	for i := 0; i < 2; i++ {
		tgt := factory()
		res, runErr := eng.Run(harness.Job{
			Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: first.Shrunk.Adversary(),
		})
		if verr := faithful(tgt.Proposals, res, runErr); !errors.Is(verr, check.ErrRoundBound) {
			t.Fatalf("replay %d of shrunk script %q: %v, want round-bound violation", i, first.Shrunk.String(), verr)
		}
		results = append(results, res.Clone())
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("replayed results diverged: %+v vs %+v", results[0], results[1])
	}
}

// TestPlantedRoundBoundMutationShrinksToEmpty plants a too-strict round
// bound (f instead of f+1): even the failure-free execution violates it, so
// the shrinker must strip every crash event and return the empty script.
func TestPlantedRoundBoundMutationShrinksToEmpty(t *testing.T) {
	eng := newEngine(t)
	factory := crwFactory(6, core.Options{})
	mutated := ConsensusOracle(func(f int) sim.Round { return sim.Round(f) })
	out := findViolation(t, eng, factory, mutated, Options{
		Gen: Gen{T: 3, CrashProb: 0.3}, Shrink: true,
	}, 50)
	if !errors.Is(out.Err, check.ErrRoundBound) {
		t.Fatalf("violation is %v, want round bound", out.Err)
	}
	if out.Shrunk == nil || out.Shrunk.Crashes() != 0 {
		t.Fatalf("shrunk script %q, want the empty (failure-free) script", out.Shrunk.String())
	}
}

// TestShrinkPrefersLaterAndSmaller exercises the secondary shrink passes on
// a synthetic oracle that fails whenever any crash event exists: the minimum
// is a single fully-silent crash in the last allowed round.
func TestShrinkPrefersLaterAndSmaller(t *testing.T) {
	eng := newEngine(t)
	factory := crwFactory(5, core.Options{})
	anyCrash := func(_ []sim.Value, res *sim.Result, runErr error) error {
		if runErr != nil {
			return runErr
		}
		if res.Faults() > 0 {
			return errors.New("crash observed")
		}
		return nil
	}
	out := findViolation(t, eng, factory, anyCrash, Options{
		Gen: Gen{T: 4, CrashProb: 0.5}, Shrink: true,
	}, 50)
	if out.Shrunk == nil {
		t.Fatal("no shrunk script")
	}
	s := *out.Shrunk
	if s.Crashes() != 1 {
		t.Fatalf("shrunk to %d events (%q), want 1", s.Crashes(), s.String())
	}
	ev := s.Events[0]
	if ev.escapes() != 0 {
		t.Errorf("shrunk event %s still lets %d messages escape, want 0", ev, ev.escapes())
	}
	// The crash round was pushed as late as the run still crashes: for a
	// system that decides in round <= horizon, any round up to the last round
	// the process is still alive-and-sending qualifies; it must at least have
	// moved past round 1 unless only round 1 reproduces.
	if ev.Round < 1 {
		t.Errorf("bad shrunk round %d", ev.Round)
	}
	t.Logf("shrunk script: %q (from %q)", s.String(), out.Script.String())
}
