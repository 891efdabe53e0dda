package harness

import (
	"fmt"

	"repro/internal/lockstep"
	"repro/internal/sim"
)

// lockstepEngine adapts the concurrent runtime (internal/lockstep), in which
// processes run concurrently on P = min(n, GOMAXPROCS) goroutines, to the
// harness interface. The runtime's shard goroutines and mail slabs are
// persistent: the adapter keeps one lockstep.Runtime and rearms it with Reset
// per job, so it advertises Reusable. It records no transcripts and, because
// concurrent processes consult the adversary in scheduling order, makes no
// bit-determinism promise. Close (called by Cache.Close) terminates the
// goroutine set and waits for it.
type lockstepEngine struct {
	rt *lockstep.Runtime
}

func init() {
	Register(func() Engine { return &lockstepEngine{} })
}

// Kind implements Engine.
func (e *lockstepEngine) Kind() Kind { return KindLockstep }

// Capabilities implements Engine.
func (e *lockstepEngine) Capabilities() Capabilities { return Capabilities{Reusable: true} }

// Run implements Engine.
func (e *lockstepEngine) Run(job Job) (*sim.Result, error) {
	if job.Trace != nil {
		return nil, fmt.Errorf("harness: engine %q has no trace capability", KindLockstep)
	}
	if job.Latency != nil {
		return nil, fmt.Errorf("harness: engine %q has no timed capability", KindLockstep)
	}
	cfg := lockstep.Config{Model: job.Model, Horizon: job.Horizon, Telemetry: job.Telemetry}
	if e.rt == nil {
		rt, err := lockstep.New(cfg, job.Procs, job.Adv)
		if err != nil {
			return nil, err
		}
		e.rt = rt
	} else if err := e.rt.Reset(cfg, job.Procs, job.Adv); err != nil {
		return nil, err
	}
	return audited(e.rt.Run())
}

// Close terminates the runtime's persistent shard goroutines.
func (e *lockstepEngine) Close() {
	if e.rt != nil {
		e.rt.Close()
		e.rt = nil
	}
}
