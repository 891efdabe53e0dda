package fuzz

import (
	"errors"
	"fmt"
	"sync"

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

// recorder is the generating adversary: a seeded random walk over the legal
// fault choices of the model — crash or not (data-step vs control-step crash
// point, escaped subset / prefix) and, when the generator enables them,
// send/receive-omission events — recording every fault it injects as a
// replayable Event. On the deterministic engine — which consults the
// adversary in a fixed (round, process) order — the walk is a pure function
// of the seed.
type recorder struct {
	rng      rng.Stream
	gen      Gen
	n        int // system size, for receive-omission sender masks
	crashes  int
	omissive map[int]bool
	events   []Event
}

// Crashes implements sim.Adversary. The choice tree mirrors
// adversary.FromChooser: crash point first (data step vs control step, when
// a control sequence exists), then either a uniform escaped subset (data
// step) or full data plus a uniform escaped prefix (control step).
func (rec *recorder) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if rec.crashes >= rec.gen.T {
		return false, sim.CrashOutcome{}
	}
	if rec.gen.MaxCrashRound > 0 && int(r) > rec.gen.MaxCrashRound {
		return false, sim.CrashOutcome{}
	}
	if rec.rng.Float64() >= rec.gen.crashProb() {
		return false, sim.CrashOutcome{}
	}
	rec.crashes++
	mask := make([]bool, len(plan.Data))
	ctrl := 0
	if len(plan.Control) > 0 && rec.rng.Intn(2) == 1 {
		// Control-step crash: the data step completed, a prefix escapes.
		for i := range mask {
			mask[i] = true
		}
		ctrl = rec.rng.Intn(len(plan.Control) + 1)
	} else {
		// Data-step crash: an arbitrary subset escapes, no control messages.
		for i := range mask {
			mask[i] = rec.rng.Intn(2) == 1
		}
	}
	rec.events = append(rec.events, Event{
		Proc: int(p), Round: int(r), Data: append([]bool(nil), mask...), Ctrl: ctrl,
	})
	return true, sim.CrashOutcome{DataDelivered: mask, CtrlPrefix: ctrl}
}

// omittingRecorder is the sim.Omitter face of a recorder. RunSeed attaches
// it only when the generator actually injects omissions, so crash-only
// campaigns keep a non-Omitter adversary and ride the engines' crash-model
// path untouched.
type omittingRecorder struct{ *recorder }

// Omits implements sim.Omitter: with probability SendOmitProb the process
// send-omits a random non-empty subset of this round's messages, and
// independently with probability RecvOmitProb it blocks a random non-empty
// subset of senders — while the budget of distinct omission-faulty processes
// lasts. Every injected event is recorded for replay.
func (rec omittingRecorder) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	g := rec.gen
	if g.MaxCrashRound > 0 && int(r) > g.MaxCrashRound {
		return sim.Omission{}
	}
	if g.MaxOmissive > 0 && !rec.omissive[int(p)] && len(rec.omissive) >= g.MaxOmissive {
		return sim.Omission{}
	}
	var om sim.Omission
	k := len(plan.Data) + len(plan.Control)
	if k > 0 && g.SendOmitProb > 0 && rec.rng.Float64() < g.SendOmitProb {
		// Uniform non-empty dropped subset over data then control positions.
		drop := rec.nonEmptySubset(k)
		om.Data = make([]bool, len(plan.Data))
		om.Ctrl = make([]bool, len(plan.Control))
		for i := 0; i < k; i++ {
			delivered := !drop[i]
			if i < len(plan.Data) {
				om.Data[i] = delivered
			} else {
				om.Ctrl[i-len(plan.Data)] = delivered
			}
		}
		rec.events = append(rec.events, Event{
			Kind: EventSendOmit, Proc: int(p), Round: int(r),
			Data:     append([]bool(nil), om.Data...),
			CtrlMask: append([]bool(nil), om.Ctrl...),
		})
	}
	if rec.n > 1 && g.RecvOmitProb > 0 && rec.rng.Float64() < g.RecvOmitProb {
		// Uniform non-empty blocked subset of the other processes.
		drop := rec.nonEmptySubset(rec.n - 1)
		om.Recv = make([]bool, rec.n)
		idx := 0
		for q := 1; q <= rec.n; q++ {
			if sim.ProcID(q) == p {
				om.Recv[q-1] = true
				continue
			}
			om.Recv[q-1] = !drop[idx]
			idx++
		}
		rec.events = append(rec.events, Event{
			Kind: EventRecvOmit, Proc: int(p), Round: int(r),
			From: append([]bool(nil), om.Recv...),
		})
	}
	if om.IsZero() {
		return sim.Omission{}
	}
	if rec.omissive == nil {
		rec.omissive = map[int]bool{}
	}
	rec.omissive[int(p)] = true
	return om
}

// nonEmptySubset draws a subset of {0..k-1} with each position included
// independently with probability 1/2, forcing one uniformly-chosen member
// when the draw comes out empty. (That redistribution puts the all-empty
// mass on the singletons, so the result slightly over-weights them relative
// to true conditioning on non-emptiness — a deliberate trade: the draw
// count stays fixed, keeping the walk a simple function of the seed, and
// over-weighting minimal fault footprints is fine for fuzzing.)
func (rec *recorder) nonEmptySubset(k int) []bool {
	drop := make([]bool, k)
	any := false
	for i := range drop {
		if rec.rng.Intn(2) == 1 {
			drop[i] = true
			any = true
		}
	}
	if !any {
		drop[rec.rng.Intn(k)] = true
	}
	return drop
}

// recorders recycles recorders across seeds and campaign workers for their
// event slice and omissive set, which a walk would otherwise grow afresh per
// seed. The generator itself needs no recycling: it is one word, and reset
// assigns the seed's stream.
var recorders = sync.Pool{New: func() any { return new(recorder) }}

// newRecorder takes a pooled recorder, reset for one seed.
func newRecorder(seed int64, gen Gen, n int) *recorder {
	rec := recorders.Get().(*recorder)
	rec.reset(seed, gen, n)
	return rec
}

// reset re-seeds the generator and forgets the previous walk, keeping the
// event and omissive-set storage.
func (rec *recorder) reset(seed int64, gen Gen, n int) {
	rec.rng = rng.New(seed)
	rec.gen, rec.n, rec.crashes = gen, n, 0
	rec.events = rec.events[:0]
	clear(rec.omissive)
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

// Factory builds a fresh Target per execution (processes are stateful, so
// every run needs its own). Factories used by a parallel campaign must be
// safe for concurrent calls, which any factory constructing a fresh process
// set per call is.
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
	var adv sim.Adversary = rec
	if opts.Gen.omitting() {
		// Only omission-injecting generators present an Omitter to the
		// engine; crash-only campaigns stay on the crash-model path.
		adv = omittingRecorder{rec}
	}
	res, runErr := eng.Run(harness.Job{
		Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: adv, Latency: tgt.Latency,
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
