package agree

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"

	"repro/internal/check"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// FuzzConfig configures a randomized fuzzing campaign: Seeds independent
// random-walk executions of the configured protocol, each validated against
// the consensus oracles (validity, uniform agreement, termination, and the
// protocol's round bound), with violating schedules minimized into
// replayable scripts.
//
// Fuzzing complements the exhaustive explorer (Explore): the explorer proves
// properties for proof-sized systems (n <= 5), the fuzzer samples the same
// choice space at production sizes and under schedules the proofs quantify
// over but the experiments never pin down.
type FuzzConfig struct {
	// N is the number of processes (required).
	N int
	// T is the crash budget per execution, below N (0 defaults to N-1).
	T int
	// Protocol selects the algorithm (default ProtocolCRW).
	Protocol Protocol
	// Engine selects the engine the campaign's random walks execute on
	// (default EngineDeterministic). The engine must advertise the
	// deterministic capability: findings are replay-verified against the
	// recorded script, which requires reproducible executions. With
	// EngineTimed the campaign runs on continuous time — combine with
	// Latency to fuzz under timing faults.
	Engine EngineKind
	// Latency configures the latency model of a timed campaign (requires an
	// engine with the timed capability). An out-of-bound spec makes late
	// messages part of every walk; such campaigns are judged on the
	// consensus properties alone and skip cross-engine checking (the round
	// engines cannot reproduce timing faults).
	Latency LatencySpec
	// Seeds is the number of seeds to fuzz (default 64); seed i is Seed+i.
	Seeds int
	// Seed is the base seed (default 1).
	Seed int64
	// CrashProb is the per-(process, round) crash probability of the random
	// walk (default 0.25).
	CrashProb float64
	// SendOmitProb is the per-(process, round) probability of injecting a
	// send-omission event (a random non-empty subset of the round's messages
	// vanishes while the sender stays alive). Zero keeps the campaign in the
	// crash model.
	SendOmitProb float64
	// RecvOmitProb is the per-(process, round) probability of injecting a
	// receive-omission event (a random non-empty subset of senders blocked).
	RecvOmitProb float64
	// MaxOmissive bounds the distinct omission-faulty processes per
	// execution (default N-1 when an omission probability is set).
	MaxOmissive int
	// OmissionOnly disables crash injection, making the walk a pure
	// omission campaign; it requires a non-zero omission probability.
	OmissionOnly bool
	// OrderAscending fuzzes the ascending-commit-order ablation (CRW only):
	// the f+1 bound is expected to fall.
	OrderAscending bool
	// CommitAsData fuzzes the commit-as-data ablation (CRW only): uniform
	// agreement is expected to fall.
	CommitAsData bool
	// Laws additionally arms the standing law-audit oracle: every run must
	// satisfy the per-run laws of internal/laws — message conservation,
	// ledger/counter consistency, the event-clock contract, and the
	// campaign's fault budget. A law violation is reported, replayed and
	// shrunk exactly like a consensus violation, and classified by law name
	// in FuzzFinding.Law.
	Laws bool
	// Shrink minimizes every violating schedule by delta debugging.
	Shrink bool
	// MaxShrinkRuns caps the shrinker's replay budget per finding
	// (default 512).
	MaxShrinkRuns int
	// Workers is the worker-pool size: 0 means GOMAXPROCS, 1 runs the
	// campaign sequentially. The report is bit-identical for every worker
	// count: each seed is a deterministic function of itself alone, and
	// results are merged in seed order.
	Workers int
	// CrossCheck replays every finding's script (the shrunk script when
	// shrinking ran) on each other registered engine and diffs the semantic
	// outcome against the deterministic engine's. Campaigns under an
	// out-of-bound latency model skip it: their findings depend on timing
	// faults the round engines cannot reproduce.
	CrossCheck bool
	// Telemetry records a span and metrics recording for a single replay
	// (FuzzReplayScript), attached to FuzzReplayReport.Telemetry. Campaign
	// runs (Fuzz) ignore it: thousands of per-seed recordings would be
	// noise, and the replay path is where a finding gets examined.
	Telemetry bool
}

// FuzzFinding is one violating execution of a campaign.
type FuzzFinding struct {
	// Seed is the seed whose random walk produced the violation.
	Seed int64
	// Err is the violated property.
	Err error
	// Law is the name of the violated law when Err is a law violation from
	// the FuzzConfig.Laws oracle (e.g. "conservation-data", "crash-budget"),
	// and "" for consensus violations. It classifies the shrunk violation
	// when shrinking ran (the class may shift while shrinking), the original
	// otherwise.
	Law string
	// Script is the recorded crash schedule (agree.ReplayFaults format).
	Script string
	// Shrunk is the minimized script when FuzzConfig.Shrink was set; it
	// fails with ShrunkErr (the violation may shift class while shrinking,
	// e.g. from a round-bound to an agreement violation).
	Shrunk string
	// ShrunkErr is the violation the shrunk script fails with.
	ShrunkErr error
	// ShrunkCrashes is the crash-event count of the shrunk script.
	ShrunkCrashes int
	// ShrunkOmissions is the omission-event count of the shrunk script.
	ShrunkOmissions int
	// CrossChecked lists the engines the finding's script was replayed on
	// when FuzzConfig.CrossCheck was set.
	CrossChecked []EngineKind
	// CrossCheckErr reports a cross-engine divergence (or reference-engine
	// failure) while replaying the finding's script.
	CrossCheckErr error
}

// FuzzReport aggregates a campaign.
type FuzzReport struct {
	// Seeds is the number of seeds fuzzed.
	Seeds int
	// Executions is the total number of engine runs, including replay
	// verification, shrinking and cross-check runs.
	Executions int
	// Findings are the violations, in seed order.
	Findings []FuzzFinding
	// MaxRounds, MaxDecideRound, MaxFaults and MaxOmissionFaulty summarize
	// the generated runs (MaxFaults counts crashes, MaxOmissionFaulty the
	// omission-faulty processes of the most omissive run).
	MaxRounds         int
	MaxDecideRound    int
	MaxFaults         int
	MaxOmissionFaulty int
	// RoundHistogram maps the latest decision round of each passing run to
	// its frequency — the scenario-diversity profile of the campaign.
	RoundHistogram map[int]int
}

// fuzzOutcome carries one seed's result through the worker pool. It holds
// no view of the worker's fuzz.Runner, which the worker's next seed
// rewrites: a finding is made of owned values before then.
type fuzzOutcome struct {
	executions        int
	rounds, maxDecide sim.Round
	faults, omissive  int
	finding           *FuzzFinding // nil for a passing seed
	fatal             error
}

// keep records the outcome of one seed, making what a finding keeps of it —
// its scripts' text, its verdicts detached from the runner's results, its
// law class and counts — its own.
func (o *fuzzOutcome) keep(out *fuzz.Outcome) {
	o.executions, o.rounds, o.maxDecide = out.Executions, out.Rounds, out.MaxDecideRound
	o.faults, o.omissive = out.Faults, out.Omissive
	if out.Err == nil {
		return
	}
	f := &FuzzFinding{Seed: out.Seed, Err: check.Detach(out.Err), Law: laws.Of(out.Err), Script: out.Script.String()}
	if out.Shrunk != nil {
		f.Shrunk = out.Shrunk.String()
		f.ShrunkErr = check.Detach(out.ShrunkErr)
		f.Law = laws.Of(out.ShrunkErr)
		f.ShrunkCrashes = out.Shrunk.Crashes()
		f.ShrunkOmissions = out.Shrunk.Omissions()
	}
	o.finding = f
}

// normalizeFuzz validates a campaign config, fills in the defaults, and
// resolves the campaign's protocol spec.
func normalizeFuzz(cfg FuzzConfig) (FuzzConfig, protocol.Spec, error) {
	spec, err := resolve(protocol.Spec{Protocol: string(cfg.Protocol), N: cfg.N, T: cfg.T,
		OrderAscending: cfg.OrderAscending, CommitAsData: cfg.CommitAsData})
	if err != nil {
		return cfg, spec, err
	}
	if cfg.Engine == "" {
		cfg.Engine = EngineDeterministic
	}
	caps, ok := harness.Lookup(harness.Kind(cfg.Engine))
	if !ok {
		return cfg, spec, fmt.Errorf("agree: unknown engine %q", cfg.Engine)
	}
	if !caps.Deterministic {
		return cfg, spec, fmt.Errorf("agree: engine %q is not deterministic; fuzz campaigns require reproducible replay", cfg.Engine)
	}
	if err := cfg.Latency.validate(); err != nil {
		return cfg, spec, err
	}
	if !cfg.Latency.IsZero() && !caps.Timed {
		return cfg, spec, fmt.Errorf("agree: FuzzConfig.Latency is not supported by engine %q (engine lacks the timed capability)", cfg.Engine)
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if !(cfg.CrashProb >= 0 && cfg.CrashProb <= 1) {
		return cfg, spec, fmt.Errorf("agree: crash probability %g out of [0, 1]", cfg.CrashProb)
	}
	if cfg.CrashProb == 0 {
		cfg.CrashProb = 0.25
	}
	if !(cfg.SendOmitProb >= 0 && cfg.SendOmitProb <= 1) {
		return cfg, spec, fmt.Errorf("agree: send-omission probability %g out of [0, 1]", cfg.SendOmitProb)
	}
	if !(cfg.RecvOmitProb >= 0 && cfg.RecvOmitProb <= 1) {
		return cfg, spec, fmt.Errorf("agree: receive-omission probability %g out of [0, 1]", cfg.RecvOmitProb)
	}
	omitting := cfg.SendOmitProb > 0 || cfg.RecvOmitProb > 0
	if cfg.OmissionOnly && !omitting {
		return cfg, spec, errors.New("agree: OmissionOnly requires a non-zero omission probability")
	}
	if cfg.MaxOmissive < 0 {
		return cfg, spec, fmt.Errorf("agree: omission-faulty budget %d is negative", cfg.MaxOmissive)
	}
	if cfg.MaxOmissive > cfg.N {
		return cfg, spec, fmt.Errorf("agree: omission-faulty budget %d exceeds the system size n=%d", cfg.MaxOmissive, cfg.N)
	}
	if omitting && cfg.MaxOmissive == 0 {
		cfg.MaxOmissive = cfg.N - 1
	}
	return cfg, spec, nil
}

// fuzzFactory builds a campaign worker's target factory: every target's
// processes are built in sys, and carry the campaign's latency model (none
// unless the campaign is timed). Every target shares one proposal slice: the
// systems copy the values into their processes and the oracles only read
// them.
func fuzzFactory(spec protocol.Spec, sys *protocol.Systems, latency LatencySpec) fuzz.Factory {
	props, lm := proposalVector(nil, spec.N, nil), latency.model(0)
	return func() fuzz.Target {
		procs, model, horizon := spec.Build(sys, props)
		return fuzz.Target{Model: model, Horizon: horizon, Procs: procs, Proposals: props, Latency: lm}
	}
}

// fuzzWorker is what a campaign worker keeps across its seeds: the systems
// its executions are built in, the factory building them there, made at the
// worker's first seed, and the runner whose storage every seed reuses, with
// the last seed's outcome, a view of it.
type fuzzWorker struct {
	sys     protocol.Systems
	factory fuzz.Factory
	run     fuzz.Runner
	out     fuzz.Outcome
}

// fuzzOracle returns the consensus oracle with the protocol's round bound.
// Omission campaigns check consensus only: the round bounds are crash-model
// theorems (their f counts crashes), and under omission faults the paper's
// reliable-channel assumption predicts consensus itself breaks — which is
// exactly what the oracle should report, not a bound artifact. Timing-fault
// campaigns (an out-of-bound latency model) degrade into receive omissions
// and are judged the same way.
func fuzzOracle(cfg FuzzConfig, spec protocol.Spec) fuzz.Oracle {
	if cfg.SendOmitProb > 0 || cfg.RecvOmitProb > 0 || !cfg.Latency.withinBound() {
		return fuzz.ConsensusOracle(nil)
	}
	return fuzz.ConsensusOracle(spec.Bound())
}

// Fuzz runs a randomized fuzzing campaign across the harness worker pool.
// Each worker draws its deterministic engine from a private cache
// (sim.Engine.Reset reuse, exactly like Sweep) and builds every execution in
// its own protocol.Systems; seeds are fanned out through the same
// work-stealing cursor, and outcomes are merged in seed order — the report
// is bit-identical for every worker count.
func Fuzz(cfg FuzzConfig) (*FuzzReport, error) {
	cfg, spec, err := normalizeFuzz(cfg)
	if err != nil {
		return nil, err
	}
	oracle := fuzzOracle(cfg, spec)
	genT := spec.T
	if cfg.OmissionOnly {
		genT = 0
	}
	if cfg.Laws {
		// The generator enforces these budgets while recording, so any excess
		// the audit observes was leaked by an engine, not injected by a walk.
		omBudget := 0
		if cfg.SendOmitProb > 0 || cfg.RecvOmitProb > 0 {
			omBudget = cfg.MaxOmissive
		}
		oracle = fuzz.Oracles(oracle, fuzz.LawOracle(laws.Budget{Crashes: genT, Omissive: omBudget}))
	}
	opts := fuzz.Options{
		Gen: fuzz.Gen{
			T: genT, CrashProb: cfg.CrashProb,
			SendOmitProb: cfg.SendOmitProb, RecvOmitProb: cfg.RecvOmitProb,
			MaxOmissive: cfg.MaxOmissive,
		},
		Shrink:        cfg.Shrink,
		MaxShrinkRuns: cfg.MaxShrinkRuns,
	}

	outcomes := make([]fuzzOutcome, cfg.Seeds)
	harness.ForEach(cfg.Seeds, cfg.Workers, func(cache *harness.Cache, w *fuzzWorker, i int) {
		slot := &outcomes[i]
		if w.factory == nil {
			w.factory = fuzzFactory(spec, &w.sys, cfg.Latency)
		}
		eng, err := cache.Get(harness.Kind(cfg.Engine))
		if err != nil {
			slot.fatal = err
			return
		}
		seed := cfg.Seed + int64(i)
		// Tag the seed's samples so a -cpuprofile of a campaign decomposes by
		// (engine, seed) in pprof's tags view. Not free: the label set, the
		// labelled context and the seed's decimal text cost 4 allocations per
		// seed whether or not a profile is active (docs/observability.md).
		pprof.Do(context.Background(),
			pprof.Labels("engine", string(cfg.Engine), "seed", strconv.FormatInt(seed, 10)),
			func(context.Context) {
				w.out, slot.fatal = w.run.Run(eng, w.factory, oracle, seed, opts)
			})
		if slot.fatal != nil {
			return
		}
		slot.keep(&w.out)
		if slot.finding == nil || !cfg.CrossCheck || !cfg.Latency.withinBound() {
			return
		}
		script := w.out.Script
		if w.out.Shrunk != nil {
			script = *w.out.Shrunk
		}
		var runs int
		slot.finding.CrossChecked, runs, slot.finding.CrossCheckErr = crossCheckScript(cache, w.factory, script)
		slot.executions += runs
	})

	rep := &FuzzReport{Seeds: cfg.Seeds, RoundHistogram: make(map[int]int)}
	for i := range outcomes {
		slot := &outcomes[i]
		if slot.fatal != nil {
			return nil, slot.fatal
		}
		rep.Executions += slot.executions
		rep.MaxRounds = max(rep.MaxRounds, int(slot.rounds))
		rep.MaxDecideRound = max(rep.MaxDecideRound, int(slot.maxDecide))
		rep.MaxFaults = max(rep.MaxFaults, slot.faults)
		rep.MaxOmissionFaulty = max(rep.MaxOmissionFaulty, slot.omissive)
		if slot.finding == nil {
			rep.RoundHistogram[int(slot.maxDecide)]++
			continue
		}
		rep.Findings = append(rep.Findings, *slot.finding)
	}
	return rep, nil
}

// FuzzReplayReport is the outcome of replaying one script via
// FuzzReplayScript.
type FuzzReplayReport struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Decisions, DecideRound, Crashed and Omissive mirror Report's fields.
	Decisions   map[int]int64
	DecideRound map[int]int
	Crashed     map[int]int
	Omissive    map[int]int
	// Err is the oracle verdict: nil when the run satisfies uniform
	// consensus and the protocol's round bound.
	Err error
	// Law names the violated law when Err is a law violation ("" otherwise).
	Law string
	// Transcript is the execution trace when requested.
	Transcript string
	// Telemetry is the replay's span and timeline recording when
	// FuzzConfig.Telemetry was set; nil otherwise.
	Telemetry *Telemetry
}

// FuzzReplayScript re-executes one crash script under a campaign
// configuration — the same protocol construction, horizon, engine, latency
// model and oracle the campaign itself used, so a finding's "reproduce with
// -replay" contract cannot drift from the code that produced it (a
// timing-fault finding from a timed campaign only reproduces on the timed
// engine under the campaign's latency model). The script is validated
// against the system size exactly like ReplayFaults specs are at Run time.
func FuzzReplayScript(cfg FuzzConfig, script string, withTrace bool) (*FuzzReplayReport, error) {
	cfg, spec, err := normalizeFuzz(cfg)
	if err != nil {
		return nil, err
	}
	s, err := fuzz.Parse(script)
	if err != nil {
		return nil, err
	}
	if err := (FaultSpec{kind: "fuzzscript", fscript: s}).validate(cfg.N); err != nil {
		return nil, err
	}
	var log *trace.Log
	if withTrace {
		log = trace.New()
	}
	var rec *telemetry.Recorder
	if cfg.Telemetry {
		rec = telemetry.New()
	}
	var sys protocol.Systems
	tgt := fuzzFactory(spec, &sys, cfg.Latency)()
	cache := harness.NewCache()
	defer cache.Close()
	eng, err := cache.Get(harness.Kind(cfg.Engine))
	if err != nil {
		return nil, err
	}
	res, runErr := eng.Run(harness.Job{
		Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: s.Adversary(),
		Trace: log, Latency: tgt.Latency, Telemetry: rec,
	})
	if res == nil {
		return nil, runErr
	}
	oracle := fuzzOracle(cfg, spec)
	if s.Omissions() > 0 {
		// An omission script is judged by the omission-model oracle even
		// when the replay flags omit the campaign's omission probabilities:
		// the crash-model round bounds do not apply to it.
		oracle = fuzz.ConsensusOracle(nil)
	}
	if cfg.Laws {
		// A replay injects exactly the script's faults, so the budget the
		// audit holds the run to is the script's own footprint: anything the
		// engine reports beyond it was leaked by the engine.
		oracle = fuzz.Oracles(oracle,
			fuzz.LawOracle(laws.Budget{Crashes: s.Crashes(), Omissive: s.OmissiveProcs()}))
	}
	// The report outlives the result's engine contract (harness.Engine.Run),
	// so its verdict is detached from the engine's result.
	rep := &FuzzReplayReport{
		Rounds: int(res.Rounds),
		Err:    check.Detach(oracle(tgt.Proposals, res, runErr)),
	}
	rep.Law = laws.Of(rep.Err)
	rep.Decisions, rep.DecideRound, rep.Crashed, rep.Omissive = outcomeMaps(res, 1)
	if log != nil {
		rep.Transcript = log.String()
	}
	if rec != nil {
		rep.Telemetry = &Telemetry{rec: rec}
	}
	return rep, nil
}

// crossCheckScript replays a script on the deterministic engine and diffs
// every other registered engine's replay against it (crossCheck). It returns
// the engines compared, the number of engine runs spent, and the first
// divergence (or reference-engine failure).
func crossCheckScript(cache *harness.Cache, factory fuzz.Factory, script fuzz.Script) ([]EngineKind, int, error) {
	job := scriptJob(factory, script)
	eng, err := cache.Get(harness.KindDeterministic)
	var primary *sim.Result
	if err == nil {
		primary, err = eng.Run(job(harness.KindDeterministic))
	}
	if primary == nil {
		return nil, 1, fmt.Errorf("agree: fuzz crosscheck reference run: %w", err)
	}
	// Run errors (e.g. horizon exhaustion on a violating schedule) are part
	// of the semantic outcome; every engine must agree on them via the result
	// it returns alongside.
	checked, runs, err := crossCheck(cache, harness.KindDeterministic, primary, err, "fuzz crosscheck",
		func() string { return fmt.Sprintf(" replaying %q", script.String()) }, job)
	return checked, runs + 1, err
}

// scriptJob returns the job replaying script on a new target of factory.
func scriptJob(factory fuzz.Factory, script fuzz.Script) func(harness.Kind) harness.Job {
	return func(harness.Kind) harness.Job {
		tgt := factory()
		return harness.Job{Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: script.Adversary()}
	}
}
