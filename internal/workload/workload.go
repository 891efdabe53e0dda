// Package workload generates client traffic for the replicated-log service
// (internal/smr, agree.Serve): command arrival times on the simulated clock,
// drawn from configurable rate schedules.
//
// Two loop disciplines are supported. An open-loop source (Open) emits
// arrivals independently of the service's progress — the generator of load
// tests, where a saturated server builds queueing delay. A closed-loop
// source (Closed) models a fixed client population: each client submits one
// command, waits for its commit, thinks, and submits the next — the service
// itself drives the feedback, this package only holds the parameters and
// samples think times.
//
// Every sample is drawn from a seeded SplitMix64 stream, so a run replays
// bit-identically for equal seeds: same schedule, same seed, same arrival
// sequence, on every platform. Schedules are consumed strictly left to
// right by a single goroutine (the service loop), so a sequential generator
// — unlike the timed engine's pure per-message latency hashes — is safe
// here.
package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// Schedule is an arrival process: Gap samples the inter-arrival time to the
// next command, given the absolute simulated time t of the previous arrival.
// Implementations draw randomness exclusively from the supplied stream.
type Schedule interface {
	Gap(t float64, src *rng.Stream) float64
	// Validate rejects schedules that cannot generate arrivals.
	Validate() error
	fmt.Stringer
}

// Fixed is a deterministic constant-rate arrival process: one command every
// 1/Rate time units, jitter-free.
type Fixed struct {
	// Rate is the arrival rate in commands per time unit.
	Rate float64
}

// Gap implements Schedule.
func (s Fixed) Gap(float64, *rng.Stream) float64 { return 1 / s.Rate }

// Validate implements Schedule.
func (s Fixed) Validate() error {
	if f := rateFault(s.Rate); f != "" {
		return fmt.Errorf("workload: fixed arrival rate %g %s", s.Rate, f)
	}
	return nil
}

// rateFault says what is wrong with an arrival rate, or "" if nothing: NaN,
// zero and negative rates generate nothing, and +Inf is an endless burst at
// one instant.
func rateFault(rate float64) string {
	if !(rate > 0) {
		return "must be positive"
	}
	if math.IsInf(rate, 1) {
		return "must be finite"
	}
	return ""
}

// String implements Schedule.
func (s Fixed) String() string { return fmt.Sprintf("fixed(rate=%g)", s.Rate) }

// Poisson is a memoryless arrival process: exponential inter-arrival times
// with mean 1/Rate.
type Poisson struct {
	// Rate is the mean arrival rate in commands per time unit.
	Rate float64
}

// Gap implements Schedule.
func (s Poisson) Gap(_ float64, src *rng.Stream) float64 { return src.Exp(1 / s.Rate) }

// Validate implements Schedule.
func (s Poisson) Validate() error {
	if f := rateFault(s.Rate); f != "" {
		return fmt.Errorf("workload: poisson arrival rate %g %s", s.Rate, f)
	}
	return nil
}

// String implements Schedule.
func (s Poisson) String() string { return fmt.Sprintf("poisson(rate=%g)", s.Rate) }

// Phase is one segment of a cyclic multi-period schedule.
type Phase struct {
	// Dur is the phase length in time units.
	Dur float64
	// Rate is the phase's arrival rate.
	Rate float64
	// Poisson selects exponential inter-arrivals within the phase;
	// false means fixed spacing.
	Poisson bool
}

// Cycle is a bursty / multi-period schedule: it cycles through its phases
// forever, sampling each gap from the phase the current time falls in
// (piecewise-stationary sampling — the gap is drawn entirely from the phase
// that contains the previous arrival, which is the standard simulator
// approximation for rates that change slowly against the gap length).
type Cycle struct {
	Phases []Phase
}

// Bursty is the classic two-period burst pattern: baseline rate for onDur
// out of every period, burst rate for the rest, Poisson within each phase.
func Bursty(baseRate, burstRate, baseDur, burstDur float64) Cycle {
	return Cycle{Phases: []Phase{
		{Dur: baseDur, Rate: baseRate, Poisson: true},
		{Dur: burstDur, Rate: burstRate, Poisson: true},
	}}
}

// phaseAt returns the phase containing absolute time t.
func (s Cycle) phaseAt(t float64) Phase {
	total := 0.0
	for _, p := range s.Phases {
		total += p.Dur
	}
	t = math.Mod(t, total)
	for _, p := range s.Phases {
		if t < p.Dur {
			return p
		}
		t -= p.Dur
	}
	return s.Phases[len(s.Phases)-1]
}

// Gap implements Schedule.
func (s Cycle) Gap(t float64, src *rng.Stream) float64 {
	p := s.phaseAt(t)
	if p.Poisson {
		return src.Exp(1 / p.Rate)
	}
	return 1 / p.Rate
}

// Validate implements Schedule.
func (s Cycle) Validate() error {
	if len(s.Phases) == 0 {
		return errors.New("workload: cycle schedule needs at least one phase")
	}
	for i, p := range s.Phases {
		if !(p.Dur > 0) {
			return fmt.Errorf("workload: phase %d duration %g must be positive", i, p.Dur)
		}
		if f := rateFault(p.Rate); f != "" {
			return fmt.Errorf("workload: phase %d rate %g %s", i, p.Rate, f)
		}
	}
	return nil
}

// String implements Schedule.
func (s Cycle) String() string {
	out := "cycle("
	for i, p := range s.Phases {
		if i > 0 {
			out += ","
		}
		kind := "fixed"
		if p.Poisson {
			kind = "poisson"
		}
		out += fmt.Sprintf("%gx%s@%g", p.Dur, kind, p.Rate)
	}
	return out + ")"
}

// Open is an open-loop arrival source: a stream of nondecreasing absolute
// arrival times drawn from a schedule, independent of service progress.
type Open struct {
	sched Schedule
	rng   rng.Stream
	next  float64
}

// NewOpen returns an open-loop source over the schedule, seeded. The first
// arrival happens one gap after time zero.
func NewOpen(sched Schedule, seed int64) (*Open, error) {
	if sched == nil {
		return nil, errors.New("workload: nil schedule")
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	o := &Open{sched: sched, rng: rng.New(seed)}
	o.next = o.sched.Gap(0, &o.rng)
	return o, nil
}

// Peek returns the next arrival time without consuming it.
func (o *Open) Peek() float64 { return o.next }

// Pop consumes and returns the next arrival time.
func (o *Open) Pop() float64 {
	t := o.next
	o.next = t + o.sched.Gap(t, &o.rng)
	return t
}

// Closed parameterizes a closed-loop client population: Clients submit one
// command each at time zero; after a client's command commits it thinks for
// a sampled time and submits the next. The service loop owns the feedback;
// ThinkGap samples one think time.
type Closed struct {
	// Clients is the population size.
	Clients int
	// Think is the mean think time between a commit and the client's next
	// command; zero means immediate resubmission.
	Think float64
	// Poisson selects exponential think times; false means fixed.
	Poisson bool

	rng rng.Stream
}

// NewClosed returns a closed-loop population with a seeded think-time
// stream.
func NewClosed(clients int, think float64, poisson bool, seed int64) (*Closed, error) {
	if clients < 1 {
		return nil, fmt.Errorf("workload: closed loop needs at least one client, got %d", clients)
	}
	if think < 0 {
		return nil, fmt.Errorf("workload: think time %g is negative", think)
	}
	return &Closed{Clients: clients, Think: think, Poisson: poisson, rng: rng.New(seed)}, nil
}

// ThinkGap samples the think time before a client's next command.
func (c *Closed) ThinkGap() float64 {
	if c.Think == 0 {
		return 0
	}
	if c.Poisson {
		return c.rng.Exp(c.Think)
	}
	return c.Think
}
