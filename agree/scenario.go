package agree

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"

	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ScenarioSource is one in-memory scenario: the file label used in error
// messages plus the scenario text. The scenario catalog on disk is the
// primary source (ScenarioOptions.Dir); Sources exist for tests and for the
// finding-to-scenario converter, which must execute a scenario before it is
// written anywhere.
type ScenarioSource struct {
	// File labels the scenario in results and expectation-mismatch errors.
	File string
	// Text is the scenario in the file format of internal/scenario.
	Text string
}

// ScenarioOptions configures a catalog run.
type ScenarioOptions struct {
	// Dir is the catalog directory: every *.scenario file under it is loaded,
	// with the name-matches-path discipline enforced. Empty skips the disk
	// catalog (Sources only).
	Dir string
	// Names filters the run to the named scenarios, in the given order
	// (empty = the whole set in catalog order). Unknown names are errors.
	Names []string
	// Sources are additional in-memory scenarios, appended after the catalog
	// entries.
	Sources []ScenarioSource
	// Engines overrides the engine selection of every scenario: each
	// scenario runs on every listed engine it supports (unsupported
	// combinations are reported as skipped, not errors — the override is a
	// sweep knob, unlike a scenario's own engines list, which is strict).
	Engines []EngineKind
	// Workers sizes the worker pool: 0 means GOMAXPROCS, 1 runs
	// sequentially. Each worker owns a private engine cache, so a catalog of
	// hundreds of entries pays for one engine per kind per worker. The
	// result order is deterministic for every worker count.
	Workers int
	// Telemetry records a span and metrics recording for every executed
	// (scenario, engine) pair, attached to the result (ScenarioResult
	// .Telemetry method). Each run gets its own recorder, so the option
	// composes with any worker count.
	Telemetry bool
}

// ScenarioResult is the outcome of one scenario on one engine.
type ScenarioResult struct {
	// Name and File identify the scenario; Engine the registry kind it ran on.
	Name   string
	File   string
	Engine EngineKind
	// Skipped reports that the engine cannot execute the scenario (e.g. a
	// round engine asked to run a latency scenario via the Engines override);
	// SkipReason says why. Skipped results carry no outcome.
	Skipped    bool
	SkipReason string
	// Verdict is the observed verdict class (scenario.Classify); Rounds,
	// MaxDecideRound and SimTime are the observed outcome.
	Verdict        string
	Rounds         int
	MaxDecideRound int
	SimTime        float64
	// Err is non-nil when the run diverged from the scenario's expectation
	// (or failed to execute); the message names the scenario file and the
	// diverging field.
	Err error
	// telemetry is the run's recording when ScenarioOptions.Telemetry was
	// set; access it via the Telemetry method.
	telemetry *Telemetry
}

// Telemetry returns the result's span and timeline recording, or nil when
// ScenarioOptions.Telemetry was not set (or the run was skipped).
func (r *ScenarioResult) Telemetry() *Telemetry { return r.telemetry }

// ScenarioReport aggregates a catalog run.
type ScenarioReport struct {
	// Scenarios is the number of distinct scenarios loaded.
	Scenarios int
	// Ran, Skipped and Failed count (scenario, engine) results.
	Ran, Skipped, Failed int
	// Results holds every (scenario, engine) outcome, ordered by scenario
	// name (catalog order), then engine kind — deterministic for every
	// worker count.
	Results []ScenarioResult
}

// scenarioJob is one (scenario, engine) execution slot.
type scenarioJob struct {
	entry     scenario.Entry
	kind      harness.Kind
	caps      harness.Capabilities
	skip      string // non-empty: skip with this reason
	telemetry bool
}

// RunScenarios loads a scenario catalog and executes every entry on every
// selected engine through the harness registry, checking each run against
// the scenario's expected verdict and bounds. It is the scenario-level
// public entry: cmd/agreesim, CI's catalog gates and scripts/verify.sh are
// thin wrappers around it.
//
// Execution fans (scenario, engine) pairs across a worker pool with
// per-worker engine and system reuse (one cache and one sweep worker — its
// systems, proposal vector, replayer and latency models — per pool worker,
// exactly like Sweep); results
// come back in deterministic catalog order regardless of the worker count.
// Every run is audited by the standing laws with the fault script's own
// budget, so a scenario expecting "pass" also pins the law-audit result.
func RunScenarios(opts ScenarioOptions) (*ScenarioReport, error) {
	entries, err := loadScenarioSet(opts)
	if err != nil {
		return nil, err
	}
	jobs, err := expandScenarioJobs(entries, opts.Engines)
	if err != nil {
		return nil, err
	}

	results := make([]ScenarioResult, len(jobs))
	harness.ForEach(len(jobs), opts.Workers, func(cache *harness.Cache, w *worker, i int) {
		job := jobs[i]
		res := &results[i]
		res.Name = job.entry.Scenario.Name
		res.File = job.entry.File
		res.Engine = EngineKind(job.kind)
		if job.skip != "" {
			res.Skipped, res.SkipReason = true, job.skip
			return
		}
		job.telemetry = opts.Telemetry
		runScenarioJob(cache, w, job, res)
	})

	rep := &ScenarioReport{Scenarios: len(entries), Results: results}
	for i := range results {
		switch {
		case results[i].Skipped:
			rep.Skipped++
		case results[i].Err != nil:
			rep.Failed++
			rep.Ran++
		default:
			rep.Ran++
		}
	}
	return rep, nil
}

// loadScenarioSet assembles the scenario set of a run: the disk catalog,
// then the in-memory sources, filtered by name, with duplicate names
// rejected.
func loadScenarioSet(opts ScenarioOptions) ([]scenario.Entry, error) {
	var entries []scenario.Entry
	if opts.Dir != "" {
		dirEntries, err := scenario.LoadDir(opts.Dir)
		if err != nil {
			return nil, err
		}
		entries = dirEntries
	}
	for i, src := range opts.Sources {
		s, err := scenario.Parse(src.Text)
		if err != nil {
			file := src.File
			if file == "" {
				file = fmt.Sprintf("source %d", i+1)
			}
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		entries = append(entries, scenario.Entry{File: src.File, Scenario: s})
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.Scenario.Name] {
			return nil, fmt.Errorf("agree: duplicate scenario name %q", e.Scenario.Name)
		}
		seen[e.Scenario.Name] = true
	}
	if len(opts.Names) == 0 {
		if len(entries) == 0 {
			return nil, fmt.Errorf("agree: no scenarios to run")
		}
		return entries, nil
	}
	byName := map[string]scenario.Entry{}
	for _, e := range entries {
		byName[e.Scenario.Name] = e
	}
	var filtered []scenario.Entry
	for _, name := range opts.Names {
		e, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("agree: unknown scenario %q (catalog has %d entries; see -list)", name, len(entries))
		}
		filtered = append(filtered, e)
	}
	return filtered, nil
}

// expandScenarioJobs resolves each scenario's engine set into concrete
// (scenario, engine) jobs. A scenario's own engines list is strict: unknown
// kinds and capability mismatches are errors naming the file. The Engines
// override and the default all-engines expansion are sweep knobs: engines
// that cannot execute the scenario become skipped results instead.
func expandScenarioJobs(entries []scenario.Entry, override []EngineKind) ([]scenarioJob, error) {
	for _, ek := range override {
		if _, ok := harness.Lookup(harness.Kind(ek)); !ok {
			return nil, fmt.Errorf("agree: unknown engine %q (registered: %v)", ek, harness.Kinds())
		}
	}
	var jobs []scenarioJob
	for _, e := range entries {
		sc := e.Scenario
		var kinds []harness.Kind
		strict := false
		switch {
		case len(override) > 0:
			for _, ek := range override {
				kinds = append(kinds, harness.Kind(ek))
			}
			sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		case len(sc.Engines) > 0:
			strict = true
			for _, name := range sc.Engines {
				kinds = append(kinds, harness.Kind(name))
			}
		default:
			kinds = harness.Kinds()
		}
		for _, kind := range kinds {
			caps, ok := harness.Lookup(kind)
			if !ok {
				return nil, fmt.Errorf("agree: scenario %q (%s): unknown engine %q (registered: %v)",
					sc.Name, e.File, kind, harness.Kinds())
			}
			job := scenarioJob{entry: e, kind: kind, caps: caps}
			if !sc.Latency.IsZero() && !caps.Timed {
				if strict {
					return nil, fmt.Errorf("agree: scenario %q (%s): engine %q lacks the timed capability its latency model requires",
						sc.Name, e.File, kind)
				}
				job.skip = fmt.Sprintf("engine %q lacks the timed capability the scenario's latency model requires", kind)
			}
			jobs = append(jobs, job)
		}
	}
	return jobs, nil
}

// scenarioLatencySpec converts the format-level latency onto the public spec
// (already validated by the scenario parser).
func scenarioLatencySpec(l scenario.Latency) LatencySpec {
	switch l.Kind {
	case "fixed":
		return FixedLatency(l.D, l.Delta)
	case "profile":
		return ProfileLatency(l.Profile)
	case "jitter":
		return JitterLatency(l.Seed, l.D, l.Delta, l.Floor, l.Spread)
	default:
		return LatencySpec{}
	}
}

// scenarioTarget materializes the run of a scenario under its fault script,
// building its processes, proposals, adversary and latency model in w: the
// job, the proposals, and the decision round bound — nil when the scenario
// is judged on the consensus properties alone (omission scripts and
// timing-fault latency models; the round bounds are crash-model theorems).
func scenarioTarget(sc *scenario.Scenario, w *worker, script fuzz.Script) (harness.Job, []sim.Value, func(f int) sim.Round, error) {
	spec, err := resolve(protocol.Spec{Protocol: sc.Protocol, N: sc.N, T: sc.T,
		OrderAscending: sc.OrderAscending, CommitAsData: sc.CommitAsData})
	if err != nil {
		return harness.Job{}, nil, nil, err
	}
	w.props = proposalVector(w.props, sc.N, sc.Proposals)
	procs, model, horizon := spec.Build(&w.sys, w.props)
	var bound func(f int) sim.Round
	if !sc.ConsensusOnly() {
		bound = spec.Bound()
	}
	return harness.Job{Model: model, Horizon: horizon, Procs: procs, Adv: w.store().replay.Adversary(script),
		Latency: w.latency(scenarioLatencySpec(sc.Latency), 0)}, w.props, bound, nil
}

// runScenarioJob executes one (scenario, engine) pair and fills the result:
// run through the harness, judge with the consensus-and-laws oracle, classify
// the verdict, and check it against the scenario's expectation.
func runScenarioJob(cache *harness.Cache, w *worker, job scenarioJob, res *ScenarioResult) {
	sc := job.entry.Scenario
	fail := func(err error) {
		res.Verdict = scenario.VerdictError
		res.Err = fmt.Errorf("scenario %q (%s) on engine %s: %w", sc.Name, job.entry.File, job.kind, err)
	}
	eng, err := cache.Get(job.kind)
	if err != nil {
		fail(err)
		return
	}
	script := sc.Script()
	target, props, bound, err := scenarioTarget(sc, w, script)
	if err != nil {
		fail(err)
		return
	}
	if job.telemetry {
		target.Telemetry = telemetry.New()
	}
	var result *sim.Result
	var runErr error
	// The pprof labels tag every sample taken while this scenario executes
	// with its (engine, scenario) identity, so a -cpuprofile of a catalog run
	// decomposes by scenario in pprof's tags view. Free when no profile is
	// active.
	pprof.Do(context.Background(),
		pprof.Labels("engine", string(job.kind), "scenario", sc.Name),
		func(context.Context) {
			result, runErr = eng.Run(target)
		})
	if target.Telemetry != nil {
		res.telemetry = &Telemetry{rec: target.Telemetry}
	}
	if result == nil {
		fail(runErr)
		return
	}
	oracle := fuzz.Oracles(
		fuzz.ConsensusOracle(bound),
		fuzz.LawOracle(laws.Budget{Crashes: script.Crashes(), Omissive: script.OmissiveProcs()}),
	)
	verdictErr := oracle(props, result, runErr)
	res.Verdict = scenario.Classify(verdictErr)
	res.Rounds = int(result.Rounds)
	res.MaxDecideRound = int(result.MaxDecideRound())
	res.SimTime = result.SimTime
	res.Err = sc.Check(job.entry.File, string(job.kind), scenario.Outcome{
		Verdict:        res.Verdict,
		Rounds:         res.Rounds,
		MaxDecideRound: res.MaxDecideRound,
		SimTime:        res.SimTime,
		Timed:          job.caps.Timed,
	})
}
