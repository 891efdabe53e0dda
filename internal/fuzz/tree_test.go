package fuzz

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
)

// answerLog is a chooser that records every answer of the chooser it wraps.
type answerLog struct {
	c       adversary.Chooser
	answers []int
}

func (l *answerLog) Choose(d adversary.Decision, n int) int {
	v := l.c.Choose(d, n)
	l.answers = append(l.answers, v)
	return v
}

// TestOneTreeSeededAnswersReplay pins that the fuzzer walks the explorer's
// tree: the answers the seeded chooser gives during a fuzz execution,
// replayed by the explorer's check.Replayer through a recorder with the
// same budgets and crash horizon, give an equal result and record the same
// script. Each subtest resets the same two recorders for every seed, as a
// Runner does.
func TestOneTreeSeededAnswersReplay(t *testing.T) {
	const n, seeds = 8, 100
	for _, tc := range []struct {
		name string
		gen  Gen
	}{
		{"crash", Gen{T: 3, CrashProb: 0.3, MaxCrashRound: 4}},
		{"omission", Gen{SendOmitProb: 0.15, RecvOmitProb: 0.1, MaxOmissive: 3}},
		{"mixed", Gen{T: 2, CrashProb: 0.2, SendOmitProb: 0.1, RecvOmitProb: 0.1, MaxOmissive: 2, MaxCrashRound: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			eng, factory := newEngine(t), crwFactory(n, core.Options{})
			run := func(rec *recorder) (*sim.Result, string) {
				tgt := factory()
				res, runErr := eng.Run(harness.Job{
					Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: rec.adversary(tc.gen.omitting()),
				})
				if res == nil {
					t.Fatal(runErr)
				}
				return res.Clone(), rec.script().String() // the engine reruns for the next call
			}
			var rec, replay recorder
			faults := 0
			for seed := int64(0); seed < seeds; seed++ {
				rec.reset(seed, tc.gen, n)
				log := &answerLog{c: rec.tree.C}
				rec.tree.C = log
				want, wantScript := run(&rec)

				// Another seed's stream: only the replayed answers may matter.
				replay.reset(seed+seeds, tc.gen, n)
				replay.tree.C = &check.Replayer{Values: log.answers}
				got, gotScript := run(&replay)
				if gotScript != wantScript {
					t.Fatalf("seed %d: replayed answers record %q, the seeded walk %q", seed, gotScript, wantScript)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d: replayed answers diverged:\n seeded   %+v\n replayed %+v", seed, want, got)
				}
				if wantScript != "" {
					faults++
				}
			}
			if faults < seeds/4 {
				t.Errorf("only %d of %d seeds injected a fault", faults, seeds)
			}
		})
	}
}
