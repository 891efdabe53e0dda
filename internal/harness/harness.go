// Package harness is the pluggable execution layer between the public agree
// API and the engine implementations. It defines the Engine interface — one
// job in, one sim.Result out, with explicit capability flags — a registry of
// engine factories keyed by kind, and the worker-pool machinery (Cache,
// ForEach) that the scenario-sweep runner in package agree fans batches of
// configurations across.
//
// Every engine adapter is reusable: calling Run repeatedly on one Engine
// value executes independent jobs, and adapters that can recycle internal
// buffers between jobs (the deterministic engine, via
// sim.Engine.ResetConfig) do so transparently. That is what makes a sweep
// cheap: each worker of a pool
// owns one Cache, so a thousand configurations pay for one engine.
package harness

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/laws"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timed"
	"repro/internal/trace"
)

// Kind identifies a registered engine. The public agree.EngineKind values
// convert directly to Kind.
type Kind string

// Kinds of the built-in engines registered by this package.
const (
	// KindDeterministic is the sequential round engine (internal/sim).
	KindDeterministic Kind = "deterministic"
	// KindLockstep is the concurrent runtime (internal/lockstep): processes
	// run concurrently on P = min(n, GOMAXPROCS) goroutines.
	KindLockstep Kind = "lockstep"
	// KindTimed is the continuous-time discrete-event engine (internal/timed).
	KindTimed Kind = "timed"
)

// Capabilities describes what an engine supports. Callers consult the flags
// before submitting a job so unsupported requests fail with an error naming
// the actual missing capability rather than a hard-coded engine name.
type Capabilities struct {
	// Trace: the engine can record an execution transcript into a
	// trace.Log supplied via Job.Trace.
	Trace bool
	// Deterministic: identical jobs produce bit-identical results. Engines
	// without this flag (the lockstep runtime) are still comparable across
	// engines when the adversary is a pure function of (process, round).
	Deterministic bool
	// Reusable: the engine recycles internal buffers across Run calls, so
	// batching many jobs onto one Engine value is cheaper than constructing
	// a fresh engine per job.
	Reusable bool
	// Timed: the engine executes on a simulated wall clock — it honors
	// Job.Latency and reports sim.Result.SimTime. Engines without this flag
	// reject jobs that specify a latency model.
	Timed bool
}

// Job is one engine-agnostic execution request: a process set with its
// adversary under a model, bounded by a horizon. Trace is optional and
// requires the Trace capability; Latency is optional and requires the Timed
// capability (a nil Latency on a timed engine selects timed.DefaultModel,
// which is within the synchrony bound and therefore semantically identical
// to the round abstraction).
type Job struct {
	Model   sim.Model
	Horizon sim.Round
	Procs   []sim.Process
	Adv     sim.Adversary
	Trace   *trace.Log
	Latency timed.LatencyModel
	// Telemetry, when non-nil, receives spans and metric samples over
	// simulated time for this run (internal/telemetry). All three engines
	// honor it; a nil recorder costs nothing on any hot path.
	Telemetry *telemetry.Recorder
}

// Engine executes jobs. Implementations must support any number of
// sequential Run calls on one value; they need not be safe for concurrent
// use (the pool gives every worker its own engines).
type Engine interface {
	// Kind returns the registry key of the engine.
	Kind() Kind
	// Capabilities returns the engine's capability flags.
	Capabilities() Capabilities
	// Run executes one job to completion and returns its result. The result
	// and its per-process Procs slice belong to the engine and are valid
	// until its next Run, which rewrites them in place: a reused engine runs
	// without allocating a result. A caller that keeps a result longer keeps
	// its Clone, and one that keeps a verdict judged on it keeps
	// check.Detach of the verdict.
	Run(Job) (*sim.Result, error)
}

// audited applies the budget-free law audit (internal/laws) to an engine
// run's outcome: every successfully finished run leaving any adapter must
// satisfy message conservation and the event-clock contract. Runs that ended
// in an engine error are legitimately partial and pass through unaudited.
// Every adapter's Run returns through this function, so no execution —
// whether reached via agree.Run, a sweep, a cross-check, or a fuzz campaign —
// escapes the audit.
func audited(res *sim.Result, err error) (*sim.Result, error) {
	if err != nil {
		return res, err
	}
	if aerr := laws.Audit(res); aerr != nil {
		return res, aerr
	}
	return res, nil
}

// entry is one registered engine factory with its advertised capabilities.
type entry struct {
	caps    Capabilities
	factory func() Engine
}

var (
	regMu    sync.RWMutex
	registry = map[Kind]entry{}
)

// Register adds an engine factory to the registry under the kind and
// capabilities reported by a probe instance. It panics on a duplicate kind
// (registration is an init-time programming act, not a runtime condition).
func Register(factory func() Engine) {
	probe := factory()
	kind := probe.Kind()
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("harness: engine kind %q registered twice", kind))
	}
	registry[kind] = entry{caps: probe.Capabilities(), factory: factory}
}

// New instantiates a fresh engine of the given kind.
func New(kind Kind) (Engine, error) {
	regMu.RLock()
	e, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("harness: unknown engine %q (registered: %v)", kind, Kinds())
	}
	return e.factory(), nil
}

// Lookup returns the capabilities of a registered kind without instantiating
// an engine.
func Lookup(kind Kind) (Capabilities, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[kind]
	return e.caps, ok
}

// Kinds returns the registered engine kinds in sorted order.
func Kinds() []Kind {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Kind, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
