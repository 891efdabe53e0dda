package fuzz

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/adversary"
	"repro/internal/harness"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/timed"
)

// Gen tunes the random-walk schedule generator.
type Gen struct {
	// T is the crash budget: the walk crashes at most T processes. A zero
	// budget disables crash faults entirely (pure omission campaigns).
	T int
	// CrashProb is the per-(process, round) crash probability (default 0.25
	// when T > 0).
	CrashProb float64
	// MaxCrashRound, if positive, is the last round a fault (crash or
	// omission) may be injected in. Faults after every correct process has
	// decided cannot affect the outcome, so campaigns bound this at the
	// protocol's round bound to keep schedules dense.
	MaxCrashRound int
	// SendOmitProb is the per-(process, round) probability of injecting a
	// send-omission event (a random non-empty subset of the round's messages
	// vanishes). Zero disables send omissions.
	SendOmitProb float64
	// RecvOmitProb is the per-(process, round) probability of injecting a
	// receive-omission event (a random non-empty subset of senders is
	// blocked). Zero disables receive omissions.
	RecvOmitProb float64
	// MaxOmissive bounds the number of distinct omission-faulty processes
	// (0 = no bound).
	MaxOmissive int
}

// omitting reports whether the generator injects omission faults at all.
func (g Gen) omitting() bool { return g.SendOmitProb > 0 || g.RecvOmitProb > 0 }

// crashProb returns the configured or default crash probability.
func (g Gen) crashProb() float64 {
	if g.CrashProb <= 0 {
		return 0.25
	}
	return g.CrashProb
}

// recorder generates a seed's schedule: adversary.FromChooser, the model's
// one fault-choice tree (crash point, escaped subset or prefix and, when the
// generator enables them, send/receive-omission subsets), walked by a
// Seeded chooser whose gates carry the generator's probabilities. The
// recorder observes the tree and keeps every fault it injects as a
// replayable Event. On the deterministic engine — which consults the
// adversary in a fixed (round, process) order — the walk is a pure function
// of the seed.
type recorder struct {
	src    adversary.Seeded
	tree   adversary.OmittingFromChooser
	events []Event
}

// ObserveCrash implements adversary.Observer: it keeps the crash as an
// Event.
func (rec *recorder) ObserveCrash(p sim.ProcID, r sim.Round, out sim.CrashOutcome) {
	rec.events = append(rec.events, Event{
		Proc: int(p), Round: int(r), Data: append([]bool(nil), out.DataDelivered...), Ctrl: out.CtrlPrefix,
	})
}

// ObserveOmission implements adversary.Observer: it keeps the send and the
// receive omission, each one present, as an Event.
func (rec *recorder) ObserveOmission(p sim.ProcID, r sim.Round, om sim.Omission) {
	if om.Data != nil {
		rec.events = append(rec.events, Event{
			Kind: EventSendOmit, Proc: int(p), Round: int(r),
			Data: append([]bool(nil), om.Data...), CtrlMask: append([]bool(nil), om.Ctrl...),
		})
	}
	if om.Recv != nil {
		rec.events = append(rec.events, Event{
			Kind: EventRecvOmit, Proc: int(p), Round: int(r), From: append([]bool(nil), om.Recv...),
		})
	}
}

// adversary returns the observed tree. Only an omitting generator gets the
// sim.Omitter face: crash-only campaigns keep a non-Omitter adversary and
// ride the engines' crash-model path untouched.
func (rec *recorder) adversary(omitting bool) sim.Adversary {
	if omitting {
		return &rec.tree
	}
	return &rec.tree.FromChooser
}

// recorders recycles recorders across seeds and campaign workers for their
// event slice and omissive set, which a walk would otherwise grow afresh per
// seed. The generator itself needs no recycling: reset assigns the seed's
// stream.
var recorders = sync.Pool{New: func() any { return new(recorder) }}

// newRecorder takes a pooled recorder, reset for one seed.
func newRecorder(seed int64, gen Gen, n int) *recorder {
	rec := recorders.Get().(*recorder)
	rec.reset(seed, gen, n)
	return rec
}

// reset re-seeds the generator and forgets the previous walk, keeping the
// event and omissive-set storage. An n-process walk crashes at most gen.T
// processes, injects faults only up to gen.MaxCrashRound and turns at most
// gen.MaxOmissive processes omission-faulty, with no cap on their events.
func (rec *recorder) reset(seed int64, gen Gen, n int) {
	rec.src = adversary.Seeded{
		Stream: rng.New(seed), CrashProb: gen.crashProb(),
		SendOmitProb: gen.SendOmitProb, RecvOmitProb: gen.RecvOmitProb,
	}
	rec.tree.FromChooser = adversary.FromChooser{
		C: &rec.src, T: gen.T, MaxCrashRound: sim.Round(gen.MaxCrashRound), Observe: rec,
	}
	rec.tree.MaxOmissive, rec.tree.Procs = gen.MaxOmissive, n
	rec.tree.Reset()
	rec.events = rec.events[:0]
}

// script returns the recorded schedule in canonical order, as an exact-size
// copy the recorder no longer references (nil when nothing was recorded).
func (rec *recorder) script() Script {
	if len(rec.events) == 0 {
		return Script{}
	}
	s := Script{Events: make([]Event, len(rec.events))}
	copy(s.Events, rec.events)
	s.normalize()
	return s
}

// Target is one system under test: the engine inputs plus the proposals the
// oracle validates against. Latency is optional and only meaningful for
// engines with the timed capability; it rides along into every job the
// runner builds (the generating run and each replay), so timed campaigns
// sample identical latencies on every execution of a seed.
type Target struct {
	Model     sim.Model
	Horizon   sim.Round
	Procs     []sim.Process
	Proposals []sim.Value
	Latency   timed.LatencyModel
}

// Factory builds the Target of one execution. Processes are stateful, so
// every run needs a fresh process set, but a factory may reset one it keeps
// (a protocol.Systems) instead of allocating one: RunSeed never touches a
// target's processes after building the next. Such a factory belongs to one
// worker and is never called concurrently; a parallel campaign gives each
// worker its own.
type Factory func() Target

// Oracle validates one finished run; a non-nil error flags a violation.
// runErr is the engine's own error (e.g. horizon exhaustion without
// decisions), which consensus oracles treat as a termination violation.
type Oracle func(proposals []sim.Value, res *sim.Result, runErr error) error

// Options tunes a per-seed fuzz run.
type Options struct {
	// Gen configures the schedule generator.
	Gen Gen
	// Shrink minimizes the recorded script on violation.
	Shrink bool
	// MaxShrinkRuns caps the shrinker's replay budget (default 512).
	MaxShrinkRuns int
}

// Outcome is the result of fuzzing one seed.
type Outcome struct {
	// Seed is the generator seed of the run.
	Seed int64
	// Script is the recorded crash schedule.
	Script Script
	// Err is the oracle violation, nil for a passing run.
	Err error
	// Shrunk is the minimized script when shrinking ran (Err != nil and
	// Options.Shrink); it fails the oracle with ShrunkErr.
	Shrunk *Script
	// ShrunkErr is the oracle violation of the shrunk script.
	ShrunkErr error
	// Executions counts engine runs spent on this seed (1 + replay + shrink).
	Executions int
	// Rounds, MaxDecideRound, Faults and Omissive summarize the generated
	// run (Faults counts crashes, Omissive counts omission-faulty processes).
	Rounds         sim.Round
	MaxDecideRound sim.Round
	Faults         int
	Omissive       int
}

// ErrReplayDiverged is returned when a recorded script does not reproduce
// its own run — which would mean the engine or the system under test is not
// deterministic, a fatal property violation of the whole approach.
var ErrReplayDiverged = errors.New("fuzz: recorded script did not reproduce the generated run")

// RunSeed fuzzes one seed: it generates a random schedule while executing it,
// validates the run with the oracle, and — on violation — replay-verifies the
// recorded script and shrinks it. The returned error is fatal (engine
// construction failure or replay divergence); oracle violations are reported
// in the Outcome.
func RunSeed(eng harness.Engine, factory Factory, oracle Oracle, seed int64, opts Options) (Outcome, error) {
	out := Outcome{Seed: seed}
	tgt := factory()
	rec := newRecorder(seed, opts.Gen, len(tgt.Procs))
	res, runErr := eng.Run(harness.Job{
		Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: rec.adversary(opts.Gen.omitting()), Latency: tgt.Latency,
	})
	// Replay and shrinking run on the script alone: the generator goes back
	// to the pool as soon as the walk is recorded.
	script := rec.script()
	recorders.Put(rec)
	if res == nil {
		return out, fmt.Errorf("fuzz: seed %d: %w", seed, runErr)
	}
	out.Executions++
	out.Script = script
	out.Rounds = res.Rounds
	out.MaxDecideRound = res.MaxDecideRound()
	out.Faults = res.Faults()
	out.Omissive = res.OmissionFaulty()
	out.Err = oracle(tgt.Proposals, res, runErr)
	if out.Err == nil {
		return out, nil
	}

	// The violation must reproduce from the recorded script alone before it
	// is worth reporting (or shrinking): replay and compare the verdicts.
	replay := func(s Script) (error, error) {
		t := factory()
		r, rerr := eng.Run(harness.Job{
			Model: t.Model, Horizon: t.Horizon, Procs: t.Procs, Adv: s.Adversary(), Latency: t.Latency,
		})
		if r == nil {
			return nil, fmt.Errorf("fuzz: replaying seed %d: %w", seed, rerr)
		}
		out.Executions++
		return oracle(t.Proposals, r, rerr), nil
	}
	verr, fatal := replay(out.Script)
	if fatal != nil {
		return out, fatal
	}
	if verr == nil {
		return out, fmt.Errorf("%w (seed %d, script %q)", ErrReplayDiverged, seed, out.Script.String())
	}
	if !opts.Shrink {
		return out, nil
	}

	budget := opts.MaxShrinkRuns
	if budget <= 0 {
		budget = 512
	}
	maxRound := int(tgt.Horizon)
	shrunk, shrunkErr, fatal := Shrink(out.Script, verr, maxRound, budget, replay)
	if fatal != nil {
		return out, fatal
	}
	out.Shrunk, out.ShrunkErr = &shrunk, shrunkErr
	return out, nil
}
