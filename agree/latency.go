package agree

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/des"
	"repro/internal/harness"
	"repro/internal/lan"
	"repro/internal/timed"
)

// LatencySpec configures the latency model of a continuous-time run
// (EngineTimed). The zero value selects the engine's default model (unit
// round, 10% control step, always within the synchrony bound), which makes
// an unconfigured timed run semantically identical to the round engines.
//
// A spec whose sampled latencies always respect the synchrony bound is
// semantically neutral: it changes Report.SimTime and nothing else, so such
// configurations remain eligible for cross-engine checking. Specs that can
// exceed the bound (an out-of-bound JitterLatency) inject timing faults —
// late messages mapped to receive omissions — and are skipped by CrossCheck,
// exactly like order-sensitive fault specs.
type LatencySpec struct {
	kind    string
	d       float64
	delta   float64
	floor   float64
	spread  float64
	seed    int64
	profile string
}

// FixedLatency is the worst-case synchronous network: every data message
// takes exactly d, every control message exactly d+delta. Measured
// completion times equal the analytic Section 2.2 costs, which experiment
// E3 exploits.
func FixedLatency(d, delta float64) LatencySpec {
	return LatencySpec{kind: "fixed", d: d, delta: delta}
}

// ProfileLatency derives D, δ and per-message latencies from a named LAN
// profile of internal/lan: "100m" (100 Mb/s Ethernet), "1g" (gigabit), or
// "10g" (10 GbE). Always within the synchrony bound — the slack is the
// profile's processing budget.
func ProfileLatency(name string) LatencySpec {
	return LatencySpec{kind: "profile", profile: name}
}

// JitterLatency adds seeded random jitter over a latency floor: data
// messages take floor + U[0, spread), control messages the same draw plus
// delta, deterministically per seed (the randomness is a pure per-message
// hash, so replays and cross-run comparisons see identical latencies).
// When floor+spread exceeds d, the tail of the distribution violates the
// synchrony bound: those messages are late, mapped to receive omissions
// (Report.Counters.Late), and the spec becomes ineligible for cross-engine
// checking.
func JitterLatency(seed int64, d, delta, floor, spread float64) LatencySpec {
	return LatencySpec{kind: "jitter", seed: seed, d: d, delta: delta, floor: floor, spread: spread}
}

// IsZero reports whether the spec is the default (engine-chosen) model.
func (l LatencySpec) IsZero() bool { return l.kind == "" }

// lanProfiles maps the public short names onto internal/lan profiles.
var lanProfiles = map[string]lan.Profile{
	"100m": lan.Ethernet100M,
	"1g":   lan.Ethernet1G,
	"10g":  lan.Ethernet10G,
}

// validate rejects specs that cannot define a round. NaN and ±Inf pass
// every ordered check below, so non-finite parameters are rejected first.
func (l LatencySpec) validate() error {
	for _, p := range [...]struct {
		name string
		v    float64
	}{{"D", l.d}, {"δ", l.delta}, {"floor", l.floor}, {"spread", l.spread}} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("agree: latency %s=%g must be finite", p.name, p.v)
		}
	}
	switch l.kind {
	case "":
		return nil
	case "fixed":
		if l.d <= 0 {
			return fmt.Errorf("agree: latency D=%g must be positive", l.d)
		}
		if l.delta < 0 {
			return fmt.Errorf("agree: latency δ=%g is negative", l.delta)
		}
	case "profile":
		if _, ok := lanProfiles[strings.ToLower(l.profile)]; !ok {
			return fmt.Errorf("agree: unknown LAN profile %q (known: 100m, 1g, 10g)", l.profile)
		}
	case "jitter":
		if l.d <= 0 {
			return fmt.Errorf("agree: latency D=%g must be positive", l.d)
		}
		if l.delta < 0 {
			return fmt.Errorf("agree: latency δ=%g is negative", l.delta)
		}
		if l.floor < 0 {
			return fmt.Errorf("agree: latency floor %g is negative", l.floor)
		}
		if l.spread < 0 {
			return fmt.Errorf("agree: latency spread %g is negative", l.spread)
		}
	default:
		return fmt.Errorf("agree: unknown latency spec kind %q", l.kind)
	}
	return nil
}

// withinBound reports whether no sampled latency can exceed the synchrony
// bound, i.e. the spec is semantically neutral and cross-engine comparable.
func (l LatencySpec) withinBound() bool {
	if l.kind == "jitter" {
		return l.floor+l.spread <= l.d
	}
	return true
}

// model materializes the spec for the timed engine; bits is the proposal
// width used by profile-derived serialization (0 defaults to 64). The zero
// spec returns nil, selecting the engine's default model.
func (l LatencySpec) model(bits int) timed.LatencyModel {
	switch l.kind {
	case "fixed":
		return timed.Fixed{D: des.Time(l.d), Delta: des.Time(l.delta)}
	case "profile":
		return timed.Profile{P: lanProfiles[strings.ToLower(l.profile)], Bits: bits}
	case "jitter":
		return timed.Jitter{D: des.Time(l.d), Delta: des.Time(l.delta),
			Floor: des.Time(l.floor), Spread: des.Time(l.spread), Seed: l.seed}
	default:
		return nil
	}
}

// EngineInfo describes one registered engine for discovery (see
// Engines and agreerun -list-engines).
type EngineInfo struct {
	// Kind is the registry key, usable as Config.Engine.
	Kind EngineKind
	// Trace: the engine records execution transcripts (Config.Trace).
	Trace bool
	// Deterministic: identical configurations produce bit-identical reports.
	Deterministic bool
	// Reusable: the engine recycles buffers across runs (cheap sweeps).
	Reusable bool
	// Timed: the engine executes on a simulated wall clock, honors
	// Config.Latency and reports Report.SimTime.
	Timed bool
}

// Engines lists the registered engines in deterministic (sorted) order.
func Engines() []EngineInfo {
	kinds := harness.Kinds()
	out := make([]EngineInfo, 0, len(kinds))
	for _, k := range kinds {
		caps, _ := harness.Lookup(k)
		out = append(out, EngineInfo{
			Kind:          EngineKind(k),
			Trace:         caps.Trace,
			Deterministic: caps.Deterministic,
			Reusable:      caps.Reusable,
			Timed:         caps.Timed,
		})
	}
	return out
}
