package timed

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/lan"
	"repro/internal/rng"
	"repro/internal/sim"
)

// LatencyModel prices every message of a continuous-time execution and fixes
// the synchrony bound the execution is judged against.
//
// Params returns the Section 2.2 timing parameters: D bounds the delivery of
// a data message (and is the classic round duration), δ extends the bound
// for the control message pipelined behind it (the extended round lasts
// D + δ). Latency samples the transfer latency of one concrete message.
//
// Implementations must be pure functions of their arguments plus immutable
// configuration: the engine may sample in any order and any number of times,
// and replaying a schedule (fuzz replay verification, shrinking, sweeps)
// must see identical latencies. Stateful generators are therefore forbidden
// — the seeded Jitter model derives its randomness from a per-message hash
// instead of a sequential RNG for exactly this reason.
type LatencyModel interface {
	// Params returns the synchrony parameters (D, δ), in whatever time unit
	// the model chooses. D must be positive, δ non-negative (and zero is
	// only meaningful for classic-model runs).
	Params() (d, delta des.Time)
	// Latency returns the transfer latency of one message. A data message
	// whose latency exceeds D — or a control message whose latency exceeds
	// D + δ — violates the synchrony bound and is mapped by the engine to a
	// receive omission at its destination (a timing fault).
	Latency(from, to sim.ProcID, r sim.Round, kind sim.MsgKind) des.Time
}

// Fixed is the worst-case synchronous network: every data message takes
// exactly D and every control message exactly D + δ — each message consumes
// its entire bound and nothing is ever late. It is the model under which the
// timed engine's completion times equal the analytic R·D / R·(D+δ) costs of
// internal/timing exactly, which is what experiment E3 exploits.
type Fixed struct {
	// D is the data-delivery bound (and classic round duration).
	D des.Time
	// Delta is the control-step extension δ.
	Delta des.Time
}

// Params implements LatencyModel.
func (m Fixed) Params() (des.Time, des.Time) { return m.D, m.Delta }

// Latency implements LatencyModel.
func (m Fixed) Latency(_, _ sim.ProcID, _ sim.Round, kind sim.MsgKind) des.Time {
	if kind == sim.Control {
		return m.D + m.Delta
	}
	return m.D
}

// DefaultModel is the latency model used when a job does not specify one:
// unit round duration with a 10% control step, always within bound — so an
// unconfigured timed run is semantically identical to the round engines and
// cross-checks cleanly against them.
func DefaultModel() LatencyModel { return Fixed{D: 1, Delta: 0.1} }

// Profile derives latencies from a concrete LAN technology (internal/lan):
// a data message costs propagation plus serialization of its frame, a
// control message one extra minimum-frame serialization behind it. Both are
// within the profile's D/δ bounds by construction — the headroom is exactly
// the profile's per-round processing budget.
type Profile struct {
	// P is the LAN profile.
	P lan.Profile
	// Bits is the data payload width b used for serialization and for the
	// bound D(b); zero defaults to 64.
	Bits int
}

func (m Profile) bits() int {
	if m.Bits > 0 {
		return m.Bits
	}
	return 64
}

// Params implements LatencyModel.
func (m Profile) Params() (des.Time, des.Time) {
	return des.Time(m.P.D(m.bits())), des.Time(m.P.Delta())
}

// Latency implements LatencyModel.
func (m Profile) Latency(_, _ sim.ProcID, _ sim.Round, kind sim.MsgKind) des.Time {
	if kind == sim.Control {
		return des.Time(m.P.CtrlLatency(m.bits()))
	}
	return des.Time(m.P.DataLatency(m.bits()))
}

// Jitter adds seeded random jitter over a latency floor: a data message
// takes Floor + U[0, Spread), a control message the same draw plus Delta
// (pipelined behind its data frame). When Floor + Spread exceeds D the tail
// of the distribution violates the synchrony bound, turning timing faults
// into a first-class, reproducible scenario class.
//
// The randomness is a pure per-message hash of (Seed, from, to, round,
// kind), not a sequential RNG: replays, shrink passes and cross-run
// comparisons all see identical latencies, and sampling order is
// irrelevant.
type Jitter struct {
	// D and Delta are the synchrony parameters, as in Fixed.
	D, Delta des.Time
	// Floor is the minimum latency (propagation).
	Floor des.Time
	// Spread is the jitter width: latencies are uniform in
	// [Floor, Floor+Spread).
	Spread des.Time
	// Seed selects the jitter sample; runs are deterministic per seed.
	Seed int64
}

// Params implements LatencyModel.
func (m Jitter) Params() (des.Time, des.Time) { return m.D, m.Delta }

// Latency implements LatencyModel.
func (m Jitter) Latency(from, to sim.ProcID, r sim.Round, kind sim.MsgKind) des.Time {
	l := m.Floor + des.Time(m.u01(from, to, r, kind))*m.Spread
	if kind == sim.Control {
		l += m.Delta
	}
	return l
}

// u01 hashes one message identity into [0, 1).
func (m Jitter) u01(from, to sim.ProcID, r sim.Round, kind sim.MsgKind) float64 {
	h := rng.Mix(uint64(m.Seed))
	h = rng.Mix(h ^ uint64(from))
	h = rng.Mix(h ^ uint64(to)<<16)
	h = rng.Mix(h ^ uint64(r)<<32)
	h = rng.Mix(h ^ uint64(kind)<<48)
	return float64(h>>11) / (1 << 53)
}

// validateModel rejects models whose parameters cannot define a round.
func validateModel(m LatencyModel) error {
	d, delta := m.Params()
	if !(d > 0) {
		return fmt.Errorf("timed: latency model has non-positive round duration D=%g", float64(d))
	}
	if delta < 0 {
		return fmt.Errorf("timed: latency model has negative control extension δ=%g", float64(delta))
	}
	return nil
}
