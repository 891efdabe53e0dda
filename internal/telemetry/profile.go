package telemetry

import (
	"sync/atomic"
	"time"
)

// Phase classifies where wall-clock time goes inside the harness worker
// pool. Unlike Recorder data, phase timers measure the host machine, not the
// simulation: they are for finding the bottleneck of a sweep (are workers
// starved? is the audit expensive? is cross-checking dominating?), and are
// deliberately kept out of every deterministic export.
type Phase uint8

// Phases.
const (
	// PhaseQueueWait is worker time spent outside the job callback: waiting
	// on the work cursor plus pool bookkeeping.
	PhaseQueueWait Phase = iota
	// PhaseRun is time inside engine Run calls.
	PhaseRun
	// PhaseAudit is time inside the post-run law audits.
	PhaseAudit
	// PhaseCrossCheck is time spent re-running configs on other engines.
	PhaseCrossCheck
	// NumPhases bounds the enum.
	NumPhases
)

// Profile accumulates wall-clock time per phase. It is safe for concurrent
// use (workers add from many goroutines); a nil *Profile discards all
// measurements, so the timers can be threaded unconditionally.
type Profile struct {
	ns [NumPhases]atomic.Int64
}

// NewProfile returns an enabled, zeroed Profile.
func NewProfile() *Profile { return &Profile{} }

// Enabled reports whether measurements are being accumulated.
func (p *Profile) Enabled() bool { return p != nil }

// Add accumulates d into the phase. No-op on a nil Profile.
func (p *Profile) Add(phase Phase, d time.Duration) {
	if p == nil || phase >= NumPhases {
		return
	}
	p.ns[phase].Add(int64(d))
}

// Get returns the accumulated time of one phase.
func (p *Profile) Get(phase Phase) time.Duration {
	if p == nil || phase >= NumPhases {
		return 0
	}
	return time.Duration(p.ns[phase].Load())
}
