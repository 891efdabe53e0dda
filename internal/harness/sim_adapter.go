package harness

import (
	"fmt"

	"repro/internal/sim"
)

// simEngine adapts the sequential deterministic engine (internal/sim) to the
// harness interface. The adapter keeps one sim.Engine and rearms it with
// ResetConfig for every job after the first — the whole job (model, horizon,
// trace, telemetry, processes, adversary) is replaced while the engine's
// buffers are kept and only grow — so jobs of every shape share one engine.
type simEngine struct {
	eng *sim.Engine
}

func init() {
	Register(func() Engine { return &simEngine{} })
}

// Kind implements Engine.
func (e *simEngine) Kind() Kind { return KindDeterministic }

// Capabilities implements Engine.
func (e *simEngine) Capabilities() Capabilities {
	return Capabilities{Trace: true, Deterministic: true, Reusable: true}
}

// Run implements Engine.
func (e *simEngine) Run(job Job) (*sim.Result, error) {
	if job.Latency != nil {
		return nil, fmt.Errorf("harness: engine %q has no timed capability", KindDeterministic)
	}
	cfg := sim.Config{Model: job.Model, Horizon: job.Horizon, Trace: job.Trace, Telemetry: job.Telemetry}
	if e.eng == nil {
		eng, err := sim.NewEngine(cfg, job.Procs, job.Adv)
		if err != nil {
			return nil, err
		}
		e.eng = eng
	} else if err := e.eng.ResetConfig(cfg, job.Procs, job.Adv); err != nil {
		return nil, err
	}
	return audited(e.eng.Run())
}
