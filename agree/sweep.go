package agree

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/diagram"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/simulate"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// SweepOptions tunes a batch execution.
type SweepOptions struct {
	// Workers is the worker-pool size: 0 means GOMAXPROCS, 1 runs the batch
	// sequentially on the calling goroutine. Reports are returned in input
	// order and are identical for every worker count.
	Workers int
	// CrossCheck additionally runs every configuration on each other
	// registered engine that supports it and diffs the semantic outcome
	// (rounds, decisions, crash set, traffic counters) against the primary
	// report; a divergence surfaces as the item's Err. Configurations with
	// an order-sensitive fault spec (RandomFaults) are skipped — their
	// CrossChecked list stays empty.
	CrossCheck bool
	// Profile, when non-nil, accumulates wall-clock phase timings over the
	// whole sweep: queue-wait (worker idle + pool overhead), run (engine
	// execution), audit (laws + consensus validation + report assembly) and
	// cross-check. Wall-clock observability only — it never touches the
	// reports, which stay bit-identical with or without it.
	Profile *telemetry.Profile
}

// SweepItem is the outcome of one configuration of a sweep.
type SweepItem struct {
	// Config is the configuration as submitted.
	Config Config
	// Report is the validated report; nil when Err is a configuration or
	// engine error (it is retained alongside a cross-check divergence Err).
	Report *Report
	// Err is the run error, if any: invalid configuration, engine failure,
	// or cross-check divergence.
	Err error
	// CrossChecked lists the engines the report was additionally verified
	// against when SweepOptions.CrossCheck was set.
	CrossChecked []EngineKind
}

// SweepAggregate summarizes a sweep.
type SweepAggregate struct {
	// Configs is the number of configurations submitted.
	Configs int
	// Errored counts items whose Err is non-nil.
	Errored int
	// Violations counts error-free reports whose ConsensusErr is non-nil.
	Violations int
	// CrossChecked counts error-free items verified on at least one other
	// engine.
	CrossChecked int
	// RoundHistogram maps the latest decision round (macro rounds under
	// simulation) to the number of error-free runs that decided there.
	RoundHistogram map[int]int
	// Counters accumulates the traffic counters of every error-free run;
	// items with a non-nil Err (including cross-check divergences, which
	// keep their primary report) are excluded from all report-derived
	// aggregates.
	Counters metrics.Counters
	// EnginesBuilt and EngineReuses account for the worker pool's engine
	// caches: constructions vs jobs served by an already-built engine
	// (the Reusable capability's dividend). They are the only
	// worker-count-dependent fields of the aggregate — a pool of w workers
	// builds up to w engines per kind touched — and are excluded from the
	// sweep's bit-identical-across-worker-counts guarantee.
	EnginesBuilt int
	// EngineReuses counts jobs served by a previously-built engine.
	EngineReuses int
}

// SweepReport is the result of a Sweep: per-configuration items in input
// order plus the aggregate.
type SweepReport struct {
	Items     []SweepItem
	Aggregate SweepAggregate
}

// Sweep executes a batch of configurations across a worker pool. Each worker
// owns one engine per engine kind and one system per protocol, and rewinds
// both between configurations (sim.Engine.Reset, protocol.Systems), so a
// sweep of a thousand scenarios constructs a handful of engines and systems.
// Items are returned in input order, bit-identical for every worker count;
// per-configuration failures are reported in the item, never by panicking or
// aborting the rest of the batch.
func Sweep(configs []Config, opts SweepOptions) *SweepReport {
	sr := &SweepReport{Items: make([]SweepItem, len(configs))}
	prof := opts.Profile
	stats := harness.ForEachProf(len(configs), opts.Workers, prof, func(cache *harness.Cache, w *worker, i int) {
		item := &sr.Items[i]
		item.Config = configs[i]
		var res *sim.Result
		item.Report, res, item.Err = runConfig(configs[i], cache, w, prof)
		if item.Err != nil || !opts.CrossCheck {
			return
		}
		var t0 time.Time
		if prof.Enabled() {
			t0 = time.Now()
		}
		item.CrossChecked, item.Err = crossCheckConfig(configs[i], res, cache, w)
		if prof.Enabled() {
			prof.Add(telemetry.PhaseCrossCheck, time.Since(t0))
		}
	})
	agg := &sr.Aggregate
	agg.Configs = len(configs)
	agg.EnginesBuilt, agg.EngineReuses = stats.Built, stats.ReuseHits
	agg.RoundHistogram = make(map[int]int)
	for i := range sr.Items {
		item := &sr.Items[i]
		if item.Err != nil {
			// Errored items — including cross-check divergences, which
			// retain their primary report — contribute nothing else: the
			// histogram, counters and violation count cover exactly the
			// error-free runs.
			agg.Errored++
			continue
		}
		if len(item.CrossChecked) > 0 {
			agg.CrossChecked++
		}
		if item.Report.ConsensusErr != nil {
			agg.Violations++
		}
		agg.RoundHistogram[item.Report.MaxDecideRound()]++
		agg.Counters.Merge(item.Report.Counters)
	}
	return sr
}

// worker is what a sweep or scenario-catalog worker keeps across its jobs:
// the systems their processes are built in and the proposal vector they run,
// both rewritten by each job. Nothing keeps the vector past its run:
// every system copies the values into its processes, and check.Consensus
// renders them into its error at once.
type worker struct {
	sys   protocol.Systems
	props []sim.Value
}

// runConfig executes one configuration on an engine drawn from the worker's
// cache, with its processes built in w, and assembles the validated
// report. The engine's result is handed back alongside it for the
// cross-check to diff against. A non-nil profile charges the engine
// execution to telemetry.PhaseRun and everything after it (law audit,
// consensus validation, report assembly) to telemetry.PhaseAudit; a nil one
// reads no clocks.
func runConfig(cfg Config, cache *harness.Cache, w *worker, prof *telemetry.Profile) (*Report, *sim.Result, error) {
	cfg, spec, err := normalize(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	kind := harness.Kind(cfg.Engine)
	caps, ok := harness.Lookup(kind)
	if !ok {
		return nil, nil, fmt.Errorf("agree: unknown engine %q", cfg.Engine)
	}
	if cfg.Trace && !caps.Trace {
		feature := "Trace"
		if cfg.Diagram {
			feature = "Diagram"
		}
		return nil, nil, fmt.Errorf("agree: Config.%s is not supported by engine %q (engine lacks the trace capability)",
			feature, cfg.Engine)
	}
	if !cfg.Latency.IsZero() && !caps.Timed {
		return nil, nil, fmt.Errorf("agree: Config.Latency is not supported by engine %q (engine lacks the timed capability)",
			cfg.Engine)
	}
	procs, model, horizon := spec.Build(&w.sys, w.props)
	var log *trace.Log
	if cfg.Trace {
		log = trace.New()
	}
	var rec *telemetry.Recorder
	if cfg.Telemetry {
		rec = telemetry.New()
	}
	eng, err := cache.Get(kind)
	if err != nil {
		return nil, nil, err
	}
	var t0 time.Time
	if prof.Enabled() {
		t0 = time.Now()
	}
	res, err := eng.Run(harness.Job{
		Model:     model,
		Horizon:   horizon,
		Procs:     procs,
		Adv:       cfg.Faults.build(cfg.N),
		Trace:     log,
		Latency:   cfg.Latency.model(cfg.Bits),
		Telemetry: rec,
	})
	if prof.Enabled() {
		prof.Add(telemetry.PhaseRun, time.Since(t0))
		defer func(t time.Time) { prof.Add(telemetry.PhaseAudit, time.Since(t)) }(time.Now())
	}
	if err != nil {
		return nil, nil, err
	}
	// The engine adapter audited the budget-free laws; the fault budget is
	// config knowledge the engines never see, so its law is audited here —
	// the single wiring point every Run and Sweep goes through. Cross-check
	// references are held to it by matching this run's outcomes exactly.
	if aerr := laws.AuditBudget(res, cfg.Faults.budget(cfg.N)); aerr != nil {
		return nil, nil, aerr
	}

	rep := &Report{
		Rounds:       int(res.Rounds),
		MacroRounds:  int(res.Rounds),
		Counters:     res.Counters,
		Ledger:       res.Ledger,
		SimTime:      res.SimTime,
		ConsensusErr: check.Detach(check.Consensus(w.props, res)),
	}
	stride := sim.Round(1)
	if cfg.SimulateOnClassic {
		stride = sim.Round(simulate.Stride(cfg.N))
		rep.MacroRounds = int(simulate.MacroRound(res.Rounds, cfg.N))
	}
	rep.Decisions, rep.DecideRound, rep.Crashed, rep.Omissive = outcomeMaps(res, stride)
	if log != nil {
		rep.Transcript = log.String()
		if cfg.Diagram {
			rep.Diagram = diagram.Render(log, cfg.N)
		}
	}
	if rec != nil {
		rep.Telemetry = &Telemetry{rec: rec}
	}
	return rep, res, nil
}

// outcomeMaps translates a run's per-process outcomes into the map-shaped
// fields of the public reports, building each map once at its exact size.
// Decision rounds are converted to macro rounds of stride micro rounds each
// (the Section 2.2 simulation; stride 1 keeps them); crash rounds are not.
// The omissive map stays nil when nobody omitted.
func outcomeMaps(res *sim.Result, stride sim.Round) (decisions map[int]int64, decideRound, crashed, omissive map[int]int) {
	nDec, nCrash, nOmit := 0, 0, 0
	for _, o := range res.Procs {
		if o.DecideRound != 0 {
			nDec++
		}
		if o.CrashRound != 0 {
			nCrash++
		}
		if o.OmissiveRounds != 0 {
			nOmit++
		}
	}
	decisions = make(map[int]int64, nDec)
	decideRound = make(map[int]int, nDec)
	crashed = make(map[int]int, nCrash)
	if nOmit > 0 {
		omissive = make(map[int]int, nOmit)
	}
	for i, o := range res.Procs {
		id := i + 1
		if o.DecideRound != 0 {
			decisions[id] = int64(o.Value)
			decideRound[id] = int((o.DecideRound-1)/stride + 1)
		}
		if o.CrashRound != 0 {
			crashed[id] = int(o.CrashRound)
		}
		if o.OmissiveRounds != 0 {
			omissive[id] = o.OmissiveRounds
		}
	}
	return decisions, decideRound, crashed, omissive
}

// crossCheckConfig re-runs cfg on every other registered engine and diffs
// each result against the primary one. Order-sensitive fault specs are
// skipped entirely — comparing engines that consult a stateful adversary in
// different orders proves nothing.
func crossCheckConfig(cfg Config, primary *sim.Result, cache *harness.Cache, w *worker) ([]EngineKind, error) {
	if !cfg.Faults.orderInsensitive() {
		return nil, nil
	}
	if !cfg.Latency.withinBound() {
		// An out-of-bound latency model injects timing faults — semantics
		// only continuous-time engines realize; comparing against the round
		// abstraction proves nothing.
		return nil, nil
	}
	cfg, spec, err := normalize(cfg, w)
	if err != nil {
		return nil, err
	}
	checked, _, err := crossCheck(cache, harness.Kind(cfg.Engine), primary, nil, "crosscheck", nil,
		func(kind harness.Kind) harness.Job {
			procs, model, horizon := spec.Build(&w.sys, w.props)
			job := harness.Job{Model: model, Horizon: horizon, Procs: procs, Adv: cfg.Faults.build(cfg.N)}
			if caps, _ := harness.Lookup(kind); caps.Timed {
				// A within-bound latency spec is semantically neutral — it
				// only prices the execution — so the round engines run the
				// same configuration without it.
				job.Latency = cfg.Latency.model(cfg.Bits)
			}
			return job
		})
	return checked, err
}

// crossCheck runs job on every registered engine other than primaryKind and
// diffs each result against primary, the result (and primaryErr the run
// error) of the same job on primaryKind. It returns the engines that agreed,
// the number of engine runs spent, and the first divergence or
// reference-engine failure, named by what; a non-nil subject adds the
// diverging input's description. A reference run error counts as a failure
// unless the primary run failed too: then both engines must agree on the
// result they return alongside it.
func crossCheck(cache *harness.Cache, primaryKind harness.Kind, primary *sim.Result, primaryErr error,
	what string, subject func() string, job func(harness.Kind) harness.Job) ([]EngineKind, int, error) {
	var checked []EngineKind
	runs := 0
	for _, kind := range harness.Kinds() {
		if kind == primaryKind {
			continue
		}
		eng, err := cache.Get(kind)
		var res *sim.Result
		if err == nil {
			runs++
			res, err = eng.Run(job(kind))
		}
		if res == nil || (err != nil && primaryErr == nil) {
			return checked, runs, fmt.Errorf("agree: %s on engine %q: %w", what, kind, err)
		}
		if diff := diffResults(primary, res); diff != "" {
			on := ""
			if subject != nil {
				on = subject()
			}
			return checked, runs, fmt.Errorf("agree: %s divergence between engines %q and %q%s: %s",
				what, primaryKind, kind, on, diff)
		}
		checked = append(checked, EngineKind(kind))
	}
	return checked, runs, nil
}

// diffResults compares the semantic fields of two engine results of one job
// and returns a description of the first difference, or "". SimTime is the
// continuous-time engines' price tag on the same semantic execution and is
// deliberately excluded. Macro rounds and the consensus verdict are
// functions of the compared rounds and outcomes.
func diffResults(a, b *sim.Result) string {
	if a.Rounds != b.Rounds {
		return fmt.Sprintf("rounds %d vs %d", a.Rounds, b.Rounds)
	}
	if len(a.Procs) != len(b.Procs) {
		return fmt.Sprintf("%d vs %d processes", len(a.Procs), len(b.Procs))
	}
	for i, o := range a.Procs {
		if p := b.Procs[i]; o != p {
			return fmt.Sprintf("p%d outcome %+v vs %+v", i+1, o, p)
		}
	}
	if a.Counters != b.Counters {
		return fmt.Sprintf("counters %s vs %s", a.Counters.String(), b.Counters.String())
	}
	if a.Ledger != b.Ledger {
		return fmt.Sprintf("ledger %s vs %s", a.Ledger.String(), b.Ledger.String())
	}
	return ""
}
