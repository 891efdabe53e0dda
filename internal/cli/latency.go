package cli

import (
	"errors"

	"repro/agree"
	"repro/internal/scenario"
)

// Latency is the latency model the six -lat-* flags select.
type Latency struct {
	profile                 string
	d, delta, floor, spread float64
	seed                    int64
}

// Latency registers the -lat-* flags; scope prefixes their help with where
// the model applies.
func (c *Cmd) Latency(scope string) *Latency {
	l := new(Latency)
	c.StringVar(&l.profile, "lat-profile", "", scope+"LAN latency profile (100m, 1g, 10g)")
	c.Float64Var(&l.d, "lat-d", 0, scope+"synchrony bound D (fixed/jitter latency model)")
	c.Float64Var(&l.delta, "lat-delta", 0, scope+"control-step extension δ")
	c.Float64Var(&l.floor, "lat-floor", 0, scope+"jitter latency floor")
	c.Float64Var(&l.spread, "lat-spread", 0, scope+"jitter width (latency = floor + U[0, spread)); floor+spread > D injects timing faults")
	c.Int64Var(&l.seed, "lat-seed", 1, scope+"jitter seed (pure per-message hash)")
	return l
}

// Scenario assembles the model in the scenario format's form, by one
// precedence rule: a profile name wins, then jitter (when a spread is
// given), then fixed (when D is given); all zero selects the engine
// default. A flag the selected model would ignore is an error, so a
// mistyped invocation cannot silently half-apply.
func (l *Latency) Scenario() (scenario.Latency, error) {
	switch {
	case l.profile != "":
		if l.d != 0 || l.delta != 0 || l.floor != 0 || l.spread != 0 {
			return scenario.Latency{}, errors.New("-lat-profile derives every parameter from the LAN profile; it cannot be combined with -lat-d/-lat-delta/-lat-floor/-lat-spread")
		}
		return scenario.Latency{Kind: "profile", Profile: l.profile}, nil
	case l.spread != 0:
		if l.d == 0 {
			return scenario.Latency{}, errors.New("-lat-spread requires -lat-d (the synchrony bound)")
		}
		return scenario.Latency{Kind: "jitter", Seed: l.seed, D: l.d, Delta: l.delta, Floor: l.floor, Spread: l.spread}, nil
	case l.d != 0:
		if l.floor != 0 {
			return scenario.Latency{}, errors.New("-lat-floor only applies to the jitter model; give -lat-spread as well")
		}
		return scenario.Latency{Kind: "fixed", D: l.d, Delta: l.delta}, nil
	case l.delta != 0 || l.floor != 0:
		return scenario.Latency{}, errors.New("-lat-delta/-lat-floor need a latency model; give -lat-d (and -lat-spread for jitter)")
	}
	return scenario.Latency{}, nil
}

// Spec returns the same model as the agree.LatencySpec a run takes.
func (l *Latency) Spec() (agree.LatencySpec, error) {
	s, err := l.Scenario()
	switch s.Kind {
	case "profile":
		return agree.ProfileLatency(s.Profile), err
	case "jitter":
		return agree.JitterLatency(s.Seed, s.D, s.Delta, s.Floor, s.Spread), err
	case "fixed":
		return agree.FixedLatency(s.D, s.Delta), err
	}
	return agree.LatencySpec{}, err
}
