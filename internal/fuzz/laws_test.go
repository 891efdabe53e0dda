package fuzz

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/sim"
)

// mutatedEngine wraps a harness engine and corrupts the result after the
// adapter's own audit has passed — exactly where a law-breaking engine bug
// would sit. The fuzz campaign's LawOracle is the only line of defense left,
// which is what these tests prove works.
type mutatedEngine struct {
	harness.Engine
	mutate func(*sim.Result)
}

func (m mutatedEngine) Run(job harness.Job) (*sim.Result, error) {
	res, err := m.Engine.Run(job)
	if res != nil && err == nil {
		m.mutate(res)
	}
	return res, err
}

// lawHunt fuzzes seeds with the given oracle until a violation surfaces,
// then requires it to be classified under wantLaw and shrunk to at most
// maxEvents fault events.
func lawHunt(t *testing.T, eng harness.Engine, factory Factory, oracle Oracle, gen Gen, wantLaw string, maxEvents int) {
	t.Helper()
	out := findViolation(t, eng, factory, oracle, Options{Gen: gen, Shrink: true}, 200)
	if got := laws.Of(out.Err); got != wantLaw {
		t.Fatalf("violation classified as %q (%v), want %q", got, out.Err, wantLaw)
	}
	if out.Shrunk == nil {
		t.Fatalf("law violation was not shrunk (script %q)", out.Script.String())
	}
	if got := laws.Of(out.ShrunkErr); got != wantLaw {
		t.Fatalf("shrunk violation classified as %q (%v), want %q", got, out.ShrunkErr, wantLaw)
	}
	if n := len(out.Shrunk.Events); n > maxEvents {
		t.Errorf("shrunk script %q has %d events, want <= %d", out.Shrunk.String(), n, maxEvents)
	}
}

// TestPlantedDoubleCountIsCaughtAndShrunk plants the double-counted-delivery
// mutation: whenever a crash dropped messages, the ledger claims one extra
// delivery. Message conservation must flag it, classify it as
// conservation-data, and shrink the hunt to a single crash event.
func TestPlantedDoubleCountIsCaughtAndShrunk(t *testing.T) {
	eng := mutatedEngine{Engine: newEngine(t), mutate: func(res *sim.Result) {
		if res.Counters.DroppedData > 0 {
			res.Ledger.DeliveredData++
		}
	}}
	factory := crwFactory(6, core.Options{})
	oracle := Oracles(ConsensusOracle(check.BoundFPlus1), LawOracle(laws.Budget{Crashes: 3, Omissive: 0}))
	lawHunt(t, eng, factory, oracle, Gen{T: 3, CrashProb: 0.3}, laws.LawConservationData, 1)
}

// TestPlantedBudgetLeakIsCaughtAndShrunk plants the leaked-omission mutation:
// once any process turns omissive, the engine reports a phantom second one —
// an adversary spending past its budget. The budget law must flag it under
// omission-budget and shrink to a single omission event. The law oracle
// stands alone here: the crash-model algorithm makes no round-bound (or even
// agreement) promise under omission faults, so a composed consensus oracle
// would legitimately fire first on unrelated seeds.
func TestPlantedBudgetLeakIsCaughtAndShrunk(t *testing.T) {
	eng := mutatedEngine{Engine: newEngine(t), mutate: func(res *sim.Result) {
		if res.OmissionFaulty() >= 1 {
			res.Procs = append(res.Procs, sim.Outcome{OmissiveRounds: 1})
		}
	}}
	factory := crwFactory(6, core.Options{})
	lawHunt(t, eng, factory, LawOracle(laws.Budget{Crashes: 0, Omissive: 1}),
		Gen{SendOmitProb: 0.2, MaxOmissive: 1}, laws.LawOmissionBudget, 1)
}

// TestPlantedClockViolationIsCaughtAndShrunk plants a surfaced clock
// violation on every faulty run (the genuine detection path — a mangled
// tie-break key inside the event core — is proven in internal/des and
// internal/timed; here the campaign-side plumbing is under test: the law
// oracle must classify and shrink it like any other violation).
func TestPlantedClockViolationIsCaughtAndShrunk(t *testing.T) {
	eng := mutatedEngine{Engine: newEngine(t), mutate: func(res *sim.Result) {
		if res.Faults() > 0 {
			res.ClockViolation = "des: FIFO tie order violated at t=3: event #7 ran after #9"
		}
	}}
	factory := crwFactory(6, core.Options{})
	oracle := Oracles(ConsensusOracle(check.BoundFPlus1), LawOracle(laws.Budget{Crashes: 3, Omissive: 0}))
	lawHunt(t, eng, factory, oracle, Gen{T: 3, CrashProb: 0.3}, laws.LawClock, 1)
}

// TestLawOracleQuietOnFaithfulEngines is the no-false-positive half: with no
// mutation planted, a campaign with the law oracle standing finds nothing,
// with and without omissions. The crash-only case composes the consensus
// oracle (the production pairing); the omission case runs the law oracle
// alone — omission faults can legitimately break the crash-model algorithm's
// consensus promises, but the conservation laws must hold regardless.
func TestLawOracleQuietOnFaithfulEngines(t *testing.T) {
	eng := newEngine(t)
	factory := crwFactory(9, core.Options{})
	cases := []struct {
		name   string
		gen    Gen
		oracle Oracle
	}{
		{"crash-only", Gen{T: 4, CrashProb: 0.3},
			Oracles(ConsensusOracle(check.BoundFPlus1), LawOracle(laws.Budget{Crashes: 4, Omissive: 0}))},
		{"omissions", Gen{T: 2, CrashProb: 0.2, SendOmitProb: 0.2, RecvOmitProb: 0.2, MaxOmissive: 3},
			LawOracle(laws.Budget{Crashes: 2, Omissive: 3})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 100; seed++ {
				out, err := RunSeed(eng, factory, tc.oracle, seed, Options{Gen: tc.gen})
				if err != nil {
					t.Fatal(err)
				}
				if out.Err != nil {
					t.Fatalf("seed %d: false positive %v (script %q)", seed, out.Err, out.Script.String())
				}
			}
		})
	}
}
