package fuzz

import (
	"errors"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/check"
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
// replayable Event, its masks copied into the recorder's own arena. On the
// deterministic engine — which consults the adversary in a fixed (round,
// process) order — the walk is a pure function of the seed.
type recorder struct {
	src    adversary.Seeded
	tree   adversary.OmittingFromChooser
	events []Event
	masks  adversary.Masks // the recorded events' masks
}

// keep copies mask into a region of the arena m; an empty mask is kept as
// nil.
func keep(m *adversary.Masks, mask []bool) []bool {
	if len(mask) == 0 {
		return nil
	}
	region := m.Carve(len(mask))
	copy(region, mask)
	return region
}

// ObserveCrash implements adversary.Observer: it keeps the crash as an
// Event.
func (rec *recorder) ObserveCrash(p sim.ProcID, r sim.Round, out sim.CrashOutcome) {
	rec.events = append(rec.events, Event{
		Proc: int(p), Round: int(r), Data: keep(&rec.masks, out.DataDelivered), Ctrl: out.CtrlPrefix,
	})
}

// ObserveOmission implements adversary.Observer: it keeps the send and the
// receive omission, each one present, as an Event.
func (rec *recorder) ObserveOmission(p sim.ProcID, r sim.Round, om sim.Omission) {
	if om.Data != nil {
		rec.events = append(rec.events, Event{
			Kind: EventSendOmit, Proc: int(p), Round: int(r),
			Data: keep(&rec.masks, om.Data), CtrlMask: keep(&rec.masks, om.Ctrl),
		})
	}
	if om.Recv != nil {
		rec.events = append(rec.events, Event{
			Kind: EventRecvOmit, Proc: int(p), Round: int(r), From: keep(&rec.masks, om.Recv),
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

// reset re-seeds the generator and forgets the previous walk, keeping the
// tree's, the events' and the masks' storage. An n-process walk crashes at
// most gen.T processes, injects faults only up to gen.MaxCrashRound and
// turns at most gen.MaxOmissive processes omission-faulty, with no cap on
// their events.
func (rec *recorder) reset(seed int64, gen Gen, n int) {
	rec.src = adversary.Seeded{
		Stream: rng.New(seed), CrashProb: gen.crashProb(),
		SendOmitProb: gen.SendOmitProb, RecvOmitProb: gen.RecvOmitProb,
	}
	tree := &rec.tree
	tree.C, tree.T, tree.MaxCrashRound, tree.Observe = &rec.src, gen.T, sim.Round(gen.MaxCrashRound), rec
	tree.MaxOmissive, tree.Procs = gen.MaxOmissive, n
	tree.Reset()
	rec.events = rec.events[:0]
	rec.masks.Reset()
}

// script returns the recorded schedule in canonical order (nil events when
// nothing was recorded): a view of the recorder's storage, valid until its
// next reset.
func (rec *recorder) script() Script {
	if len(rec.events) == 0 {
		return Script{}
	}
	s := Script{Events: rec.events[:len(rec.events):len(rec.events)]}
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
// (a protocol.Systems) instead of allocating one: a Runner never touches a
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

// Outcome is the result of fuzzing one seed. Runner.Run reports its
// scripts and verdicts as views of the runner's storage (see Run).
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

// Runner fuzzes seeds one after another on storage it keeps across them:
// the recorder, one replayer, the shrinker's two script buffers and the
// results its verdicts read. A warmed runner runs a passing seed, and
// replays a script, without allocating. The zero value is ready to use. A
// runner is not safe for concurrent use: a parallel campaign gives each
// worker its own.
type Runner struct {
	rec    recorder
	rep    replayer
	cur    scriptBuf  // the shrinker's current script
	spare  scriptBuf  // the shrinker's candidate, a mutated copy of cur
	keys   []evKey    // the shrinker's event identities of one pass
	errRes sim.Result // the result the generating run's verdict reads
	curRes sim.Result // the result the shrunk script's verdict reads

	// The seed being run, which every replay of it uses.
	eng     harness.Engine
	factory Factory
	oracle  Oracle
	seed    int64
	execs   int
}

// RunSeed fuzzes one seed on a Runner of its own, so the Outcome it returns
// is owned by the caller. See Runner.Run.
func RunSeed(eng harness.Engine, factory Factory, oracle Oracle, seed int64, opts Options) (Outcome, error) {
	return new(Runner).Run(eng, factory, oracle, seed, opts)
}

// Run fuzzes one seed: it generates a random schedule while executing it,
// validates the run with the oracle, and — on violation — replay-verifies
// the recorded script and shrinks it. The returned error is fatal (engine
// construction failure or replay divergence); oracle violations are
// reported in the Outcome.
//
// The Outcome's Script, Shrunk, Err and ShrunkErr are views of the runner's
// storage, valid until its next Run: a caller that keeps them longer keeps
// Script.String of the scripts and check.Detach of the verdicts.
func (r *Runner) Run(eng harness.Engine, factory Factory, oracle Oracle, seed int64, opts Options) (out Outcome, fatal error) {
	r.eng, r.factory, r.oracle, r.seed, r.execs = eng, factory, oracle, seed, 0
	defer func() { out.Executions = r.execs }()
	out.Seed = seed
	tgt := factory()
	r.rec.reset(seed, opts.Gen, len(tgt.Procs))
	res, runErr := eng.Run(harness.Job{
		Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: r.rec.adversary(opts.Gen.omitting()), Latency: tgt.Latency,
	})
	if res == nil {
		return out, fmt.Errorf("fuzz: seed %d: %w", seed, runErr)
	}
	r.execs++
	out.Script = r.rec.script()
	out.Rounds = res.Rounds
	out.MaxDecideRound = res.MaxDecideRound()
	out.Faults = res.Faults()
	out.Omissive = res.OmissionFaulty()
	// The replays below rewrite the engine's result, which a lazily
	// rendered verdict still reads: the kept one reads a copy.
	out.Err = check.DetachInto(oracle(tgt.Proposals, res, runErr), &r.errRes)
	if out.Err == nil {
		return out, nil
	}

	// The violation must reproduce from the recorded script alone before it
	// is worth reporting (or shrinking): replay and compare the verdicts.
	verr, fatal := r.replay(out.Script)
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
	out.Shrunk, out.ShrunkErr, fatal = r.shrink(out.Script, verr, int(tgt.Horizon), budget)
	return out, fatal
}

// replay runs the script on the seed's engine through the runner's one
// replayer and returns the oracle's verdict on it, or a fatal error when
// the engine could not run it.
func (r *Runner) replay(s Script) (error, error) {
	t := r.factory()
	res, err := r.eng.Run(harness.Job{
		Model: t.Model, Horizon: t.Horizon, Procs: t.Procs, Adv: r.rep.adversary(s), Latency: t.Latency,
	})
	if res == nil {
		return nil, fmt.Errorf("fuzz: replaying seed %d: %w", r.seed, err)
	}
	r.execs++
	return r.oracle(t.Proposals, res, err), nil
}
