// Package agree is the public API of the reproduction: one call configures
// and executes a uniform-consensus run under any of the implemented
// protocols, models, engines and fault scenarios, and returns a validated
// report.
//
// The three protocols are the paper's algorithm (ProtocolCRW, extended
// synchronous model, decides in at most f+1 rounds) and the two classic-model
// baselines it is measured against (ProtocolEarlyStop, min(f+2, t+1) rounds;
// ProtocolFloodSet, always t+1 rounds).
//
// Quickstart:
//
//	report, err := agree.Run(agree.Config{
//	    N:        8,
//	    Protocol: agree.ProtocolCRW,
//	    Faults:   agree.CoordinatorCrashes(2),
//	})
//	// report.Rounds == 3 (= f+1), report.Decisions all equal.
package agree

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/adversary"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Protocol selects the consensus algorithm.
type Protocol string

// Implemented protocols.
const (
	// ProtocolCRW is the paper's rotating-coordinator algorithm for the
	// extended synchronous model (Figure 1).
	ProtocolCRW Protocol = "crw"
	// ProtocolEarlyStop is the classic-model early-stopping uniform
	// consensus baseline (min(f+2, t+1) rounds).
	ProtocolEarlyStop Protocol = "earlystop"
	// ProtocolFloodSet is the classic FloodSet baseline (t+1 rounds).
	ProtocolFloodSet Protocol = "floodset"
)

// EngineKind selects the execution engine.
type EngineKind string

// Implemented engines.
const (
	// EngineDeterministic is the sequential round engine (exact, fast,
	// exhaustively explorable).
	EngineDeterministic EngineKind = "deterministic"
	// EngineLockstep runs the processes concurrently on P = min(n,
	// GOMAXPROCS) goroutines in barrier-synchronized phases, routing each
	// round's mail from per-goroutine outboxes between them; the order in
	// which processes consult the adversary depends on scheduling.
	EngineLockstep EngineKind = "lockstep"
	// EngineTimed is the continuous-time discrete-event engine: every
	// message's arrival is priced by a latency model (Config.Latency),
	// round boundaries emerge from timers, and the report carries the
	// measured completion time (Report.SimTime). Latencies beyond the
	// synchrony bound become receive omissions — timing faults.
	EngineTimed EngineKind = "timed"
)

// FaultSpec describes the fault scenario of a run: crash faults, omission
// faults, or a mix of both.
type FaultSpec struct {
	kind       string
	f          int
	deliver    bool
	ctrlPrefix int
	seed       int64
	prob       float64
	recvProb   float64
	max        int
	script     map[sim.ProcID]adversary.CrashPlan
	fscript    fuzz.Script
}

// NoFaults returns the failure-free scenario.
func NoFaults() FaultSpec { return FaultSpec{kind: "none"} }

// CoordinatorCrashes crashes the coordinator of each of the first f rounds
// silently (no messages escape) — the worst case schedule that forces the
// paper's algorithm to its f+1 bound.
func CoordinatorCrashes(f int) FaultSpec {
	return FaultSpec{kind: "coordkiller", f: f, ctrlPrefix: 0}
}

// CoordinatorCrashesDelivering crashes the first f coordinators after their
// data step completed, with ctrlPrefix control messages escaping
// (adversary.CtrlAll for the full sequence).
func CoordinatorCrashesDelivering(f, ctrlPrefix int) FaultSpec {
	return FaultSpec{kind: "coordkiller", f: f, deliver: true, ctrlPrefix: ctrlPrefix}
}

// RandomFaults crashes each alive process with probability prob per round,
// at most max crashes total, deterministically for a seed: the seed selects
// a SplitMix64 stream.
func RandomFaults(seed int64, prob float64, max int) FaultSpec {
	return FaultSpec{kind: "random", seed: seed, prob: prob, max: max}
}

// ScriptedFaults uses explicit per-process crash plans.
func ScriptedFaults(plans map[int]CrashPlan) FaultSpec {
	script := map[sim.ProcID]adversary.CrashPlan{}
	for p, cp := range plans {
		script[sim.ProcID(p)] = adversary.CrashPlan{
			Round:          sim.Round(cp.Round),
			DeliverAllData: cp.DeliverAllData,
			DataMask:       cp.DataMask,
			CtrlPrefix:     cp.CtrlPrefix,
		}
	}
	return FaultSpec{kind: "script", script: script}
}

// ReplayFaults replays a fault script: a schedule of crash and omission
// faults in the script format of fuzzer findings (agree.Fuzz,
// cmd/agreefuzz) and explorer counterexamples. It is ';'-joined events of
// three kinds, the empty string being the failure-free schedule:
//
//	crash          p<proc>@r<round>:<data mask>/<ctrl prefix>   p3@r1:101/0
//	send omission  p<proc>@r<round>:so:<data mask>/<ctrl mask>  p1@r1:so:0/
//	recv omission  p<proc>@r<round>:ro:<sender mask>            p3@r1:ro:0111
//
// A crash mask names the data messages that escape, an omission mask the
// messages delivered; positions beyond a mask drop for a crash and are
// delivered for an omission. A process may omit in several rounds, each
// before its crash round, and every omission must drop something. Replay is
// a pure function of (process, round), so the spec is order-insensitive and
// cross-checks cleanly on every engine.
func ReplayFaults(script string) (FaultSpec, error) {
	s, err := parseReplay(script)
	if err != nil {
		return FaultSpec{}, err
	}
	return FaultSpec{kind: "fuzzscript", fscript: s}, nil
}

// parseReplay parses a fault script. Its errors carry the one prefix the
// script's validation errors get, "agree: replay script".
func parseReplay(script string) (fuzz.Script, error) {
	s, err := fuzz.Parse(script)
	if err != nil {
		return s, fmt.Errorf("agree: replay script %s", strings.TrimPrefix(err.Error(), "fuzz: "))
	}
	return s, nil
}

// CrashPlan mirrors adversary.CrashPlan for the public API. A plan with a
// non-zero CtrlPrefix crashes in the control step, after the whole data
// step: it must set DeliverAllData and leave DataMask nil.
type CrashPlan struct {
	Round          int
	DeliverAllData bool
	DataMask       []bool
	CtrlPrefix     int
}

// CtrlAll requests full control delivery in a CrashPlan.
const CtrlAll = adversary.CtrlAll

// OmissionFaults returns a randomized omission scenario: at most maxFaulty
// distinct processes turn omission faulty, each omitting every message it
// sends with probability sendProb and blocking each inbound sender with
// probability recvProb per round, deterministically for a seed. With
// maxFaulty = n and recvProb = 0 this is the classic lossy-channel ablation.
//
// Like RandomFaults, the spec is order-sensitive (the adversary is stateful),
// so it is skipped by cross-engine checking.
func OmissionFaults(seed int64, sendProb, recvProb float64, maxFaulty int) FaultSpec {
	return FaultSpec{kind: "randomomit", seed: seed, prob: sendProb, recvProb: recvProb, max: maxFaulty}
}

// adversary materializes the spec's adversary for an n-process job in the
// worker's storage, rewriting the one of its kind in place: it stays valid
// until the worker's next job. The failure-free spec needs no storage.
func (w *worker) adversary(f FaultSpec, n int) sim.Adversary {
	if f.kind == "" || f.kind == "none" {
		return adversary.None{}
	}
	m := w.store()
	switch f.kind {
	case "coordkiller":
		m.coord = adversary.CoordinatorKiller{F: f.f, DeliverAllData: f.deliver, CtrlPrefix: f.ctrlPrefix}
		return &m.coord
	case "random":
		// adversary.NewRandom's tree, rewound: the crash budget of the
		// worker's previous job must not carry over.
		m.seeded = adversary.Seeded{Stream: rng.New(f.seed), CrashProb: f.prob}
		m.random.C, m.random.T = &m.seeded, f.max
		m.random.Reset()
		return &m.random
	case "script":
		m.script.Plans = f.script
		return &m.script
	case "randomomit":
		if m.romit == nil {
			m.romit = new(adversary.RandomOmission)
		}
		m.romit.Reset(f.seed, f.prob, f.recvProb, f.max, n)
		return m.romit
	default: // "fuzzscript"
		return m.replay.Adversary(f.fscript)
	}
}

// validate rejects fault scenarios that are nonsensical for an n-process
// system. Historically these were silently clamped or ignored (a negative f
// crashed nobody, an out-of-range control prefix became 0, a scripted crash
// of p9 in a 4-process run never fired), which made misconfigured sweeps
// look like passing ones; every such case is now a configuration error.
func (f FaultSpec) validate(n int) error {
	switch f.kind {
	case "coordkiller":
		if f.f < 0 {
			return fmt.Errorf("agree: coordinator crash count f=%d is negative", f.f)
		}
		if f.f >= n {
			return fmt.Errorf("agree: coordinator crash count f=%d must leave a survivor (n=%d, so f <= %d)", f.f, n, n-1)
		}
		if f.ctrlPrefix < CtrlAll || f.ctrlPrefix > n-1 {
			return fmt.Errorf("agree: control prefix %d out of range (0..%d, or agree.CtrlAll for the full sequence)", f.ctrlPrefix, n-1)
		}
	case "random":
		if !(f.prob >= 0 && f.prob <= 1) {
			return fmt.Errorf("agree: crash probability %g out of [0, 1]", f.prob)
		}
		if f.max < 0 {
			return fmt.Errorf("agree: crash budget max=%d is negative", f.max)
		}
		if f.max >= n {
			return fmt.Errorf("agree: crash budget max=%d must leave a survivor (n=%d, so max <= %d)", f.max, n, n-1)
		}
	case "script":
		if err := validateCrashScript(f.script, n); err != nil {
			return err
		}
	case "randomomit":
		if !(f.prob >= 0 && f.prob <= 1) {
			return fmt.Errorf("agree: send-omission probability %g out of [0, 1]", f.prob)
		}
		if !(f.recvProb >= 0 && f.recvProb <= 1) {
			return fmt.Errorf("agree: receive-omission probability %g out of [0, 1]", f.recvProb)
		}
		if f.max < 0 {
			return fmt.Errorf("agree: omission-faulty budget max=%d is negative", f.max)
		}
		if f.max > n {
			return fmt.Errorf("agree: omission-faulty budget max=%d exceeds the system size n=%d", f.max, n)
		}
	case "fuzzscript":
		if err := f.fscript.ValidateFor(n); err != nil {
			return fmt.Errorf("agree: replay script %w", err)
		}
	}
	return nil
}

// validateCrashScript applies the scripted-crash rules: processes exist,
// rounds are 1-based, control prefixes are in range, and somebody survives.
func validateCrashScript(script map[sim.ProcID]adversary.CrashPlan, n int) error {
	crashes := 0
	for p, cp := range script {
		if p < 1 || int(p) > n {
			return fmt.Errorf("agree: scripted crash of nonexistent p%d (n=%d)", p, n)
		}
		if cp.Round < 1 {
			return fmt.Errorf("agree: scripted crash of p%d in round %d (rounds are 1-based)", p, cp.Round)
		}
		if cp.CtrlPrefix < adversary.CtrlAll || cp.CtrlPrefix > n-1 {
			return fmt.Errorf("agree: scripted control prefix %d of p%d out of range (0..%d, or agree.CtrlAll)", cp.CtrlPrefix, p, n-1)
		}
		if cp.CtrlPrefix != 0 && (!cp.DeliverAllData || cp.DataMask != nil) {
			return fmt.Errorf("agree: scripted crash of p%d lets control messages escape but not every data message (a crash in the control step delivered all data: set DeliverAllData and no DataMask)", p)
		}
		crashes++
	}
	if crashes >= n && n > 0 {
		return fmt.Errorf("agree: script crashes all %d processes; a run needs a survivor", n)
	}
	return nil
}

// budget derives the fault budget a spec is allowed to spend on an n-process
// system — the bound the crash-budget and omission-budget laws audit every
// run against. A spec that can never crash (or never omit) gets a zero
// budget for that class, so a single leaked fault is a law violation.
func (f FaultSpec) budget(n int) laws.Budget {
	switch f.kind {
	case "coordkiller":
		return laws.Budget{Crashes: f.f, Omissive: 0}
	case "random":
		return laws.Budget{Crashes: f.max, Omissive: 0}
	case "script":
		return laws.Budget{Crashes: len(f.script), Omissive: 0}
	case "randomomit":
		return laws.Budget{Crashes: 0, Omissive: f.max}
	case "fuzzscript":
		return laws.Budget{Crashes: f.fscript.Crashes(), Omissive: f.fscript.OmissiveProcs()}
	default: // "none" and the zero spec fault nobody
		return laws.Budget{Crashes: 0, Omissive: 0}
	}
}

// orderInsensitive reports whether the spec's adversary is a pure function
// of (process, round). Cross-engine comparison requires it: the lockstep
// runtime consults the adversary in goroutine scheduling order, so a
// stateful randomized adversary — crash or omission — can legitimately
// diverge between engines.
func (f FaultSpec) orderInsensitive() bool { return f.kind != "random" && f.kind != "randomomit" }

// Config configures a run.
type Config struct {
	// N is the number of processes (required).
	N int
	// T is the resilience bound for the classic baselines, below N; 0
	// defaults to N-1 (crash-stop consensus tolerates any minority-free
	// bound). A negative T or one of at least N is an error.
	T int
	// Protocol selects the algorithm (default ProtocolCRW).
	Protocol Protocol
	// Engine selects the execution engine (default EngineDeterministic).
	Engine EngineKind
	// Proposals are the proposed values; nil defaults to 100+i for p_{i+1}.
	Proposals []int64
	// Bits is the proposal bit width b used for Theorem 2 accounting
	// (0 defaults to 64; a negative width is an error).
	Bits int
	// Faults is the crash scenario (default NoFaults).
	Faults FaultSpec
	// Latency configures the latency model of a continuous-time run; it
	// requires an engine with the timed capability (EngineTimed). The zero
	// value selects the engine's default within-bound model.
	Latency LatencySpec
	// SimulateOnClassic runs the extended-model protocol through the
	// Section 2.2 simulation on top of the classic model (CRW only).
	SimulateOnClassic bool
	// Trace enables the execution transcript in the report (deterministic
	// engine only).
	Trace bool
	// Diagram additionally renders a space-time diagram of the execution
	// (implies Trace).
	Diagram bool
	// Telemetry records simulated-time spans and metric timelines for the
	// run and attaches them to Report.Telemetry. All engines support it; the
	// recorded content is a pure function of the configuration on
	// deterministic engines (see VerifyTelemetryDeterminism).
	Telemetry bool
}

// Report is the validated outcome of a run.
type Report struct {
	// Rounds is the number of rounds executed (micro rounds when
	// SimulateOnClassic is set; see MacroRounds).
	Rounds int
	// MacroRounds is the extended-model round count (equals Rounds except
	// under SimulateOnClassic).
	MacroRounds int
	// Decisions maps process id to decided value.
	Decisions map[int]int64
	// DecideRound maps process id to decision round.
	DecideRound map[int]int
	// Crashed maps crashed process ids to crash rounds.
	Crashed map[int]int
	// Omissive maps omission-faulty process ids to their number of omissive
	// rounds; omission-faulty processes stay alive and appear in Decisions.
	Omissive map[int]int
	// Counters holds communication costs.
	Counters metrics.Counters
	// Ledger is the delivery ledger of the run: the per-kind fate of every
	// transmitted message, satisfying the conservation identity
	// sent == delivered + recv-omitted + late + dead-dest + halted-dest
	// (audited on every run by internal/laws).
	Ledger metrics.Ledger
	// SimTime is the measured completion time of the run in the latency
	// model's time units; zero on round-abstraction engines. Cross-engine
	// comparison excludes it: it prices the execution, it does not change
	// it.
	SimTime float64
	// ConsensusErr is nil when the run satisfies uniform consensus
	// (validity, uniform agreement, termination).
	ConsensusErr error
	// Transcript is the execution trace when Config.Trace was set.
	Transcript string
	// Diagram is the rendered space-time diagram when Config.Diagram was
	// set.
	Diagram string
	// Telemetry holds the run's spans and metric timelines when
	// Config.Telemetry was set; nil otherwise. It is an in-memory attachment,
	// deliberately excluded from the report's JSON form — export it
	// explicitly with ChromeTrace, MetricsJSON or Timeline.
	Telemetry *Telemetry
}

// Faults returns the number of crashes that occurred.
func (r *Report) Faults() int { return len(r.Crashed) }

// OmissionFaulty returns the number of processes that committed at least one
// omission fault.
func (r *Report) OmissionFaulty() int { return len(r.Omissive) }

// MaxDecideRound returns the latest decision round (macro rounds under
// simulation).
func (r *Report) MaxDecideRound() int {
	max := 0
	for _, rd := range r.DecideRound {
		if rd > max {
			max = rd
		}
	}
	return max
}

// Run executes one consensus instance and validates it. It is the
// single-config path of the sweep runner: the engine is resolved through
// the harness registry — never by a switch in this package — but the batch
// scaffolding (report slice, aggregate fold) is skipped, keeping the
// library's primary entry point lean.
func Run(cfg Config) (*Report, error) {
	cache := harness.NewCache()
	defer cache.Close()
	var w worker
	rep, _, err := runConfig(cfg, cache, &w, nil)
	return rep, err
}

// normalize validates a config, fills in the defaults, and materializes the
// proposal vector in w.props. It returns the normalized copy and its
// protocol spec.
func normalize(cfg Config, w *worker) (Config, protocol.Spec, error) {
	spec, err := resolve(protocol.Spec{Protocol: string(cfg.Protocol), N: cfg.N, T: cfg.T,
		Bits: cfg.Bits, SimulateOnClassic: cfg.SimulateOnClassic})
	if err != nil {
		return cfg, spec, err
	}
	if cfg.Engine == "" {
		cfg.Engine = EngineDeterministic
	}
	if cfg.Diagram {
		cfg.Trace = true
	}
	if err := cfg.Faults.validate(cfg.N); err != nil {
		return cfg, spec, err
	}
	if err := cfg.Latency.validate(); err != nil {
		return cfg, spec, err
	}
	if cfg.Proposals != nil && len(cfg.Proposals) != cfg.N {
		return cfg, spec, fmt.Errorf("agree: %d proposals for %d processes", len(cfg.Proposals), cfg.N)
	}
	w.props = proposalVector(w.props, cfg.N, cfg.Proposals)
	return cfg, spec, nil
}

// proposalVector returns the proposals of an n-process run in dst's storage,
// grown when it is too short: given[i] for p_{i+1}, or 100+i when given is
// nil.
func proposalVector(dst []sim.Value, n int, given []int64) []sim.Value {
	props := slices.Grow(dst[:0], n)[:n]
	for i := range props {
		props[i] = sim.Value(100 + i)
		if given != nil {
			props[i] = sim.Value(given[i])
		}
	}
	return props
}

// resolve validates a protocol spec for the public API, whose errors carry
// the package prefix.
func resolve(spec protocol.Spec) (protocol.Spec, error) {
	spec, err := spec.Resolve()
	if err != nil {
		return spec, fmt.Errorf("agree: %w", err)
	}
	return spec, nil
}
