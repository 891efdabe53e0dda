// Package timing implements the round-duration cost model of Section 2.2.
//
// In the traditional synchronous model a round lasts D — an upper bound on
// message transfer delay plus local processing time. The extended model adds
// the control sending step, pipelined right behind the data step on the same
// channels, which lengthens the round by δ with δ << D (δ does not have to
// cover a message transfer delay: the control message is pipelined behind the
// data message, so D + δ still bounds the arrival of both).
//
// A consensus run deciding in R_ext rounds of the extended model therefore
// costs R_ext·(D+δ) time, against R_cl·D for an R_cl-round classic-model
// algorithm. With the optimal round counts (f+1 for the extended model,
// min(f+2, t+1) for the classic model) the extended model wins iff
//
//	(f+1)(D+δ) < min(f+2, t+1)·D.
//
// For f <= t-2 this reduces to δ/D < 1/(f+1); for f ∈ {t-1, t} the classic
// bound is already t+1 = f+2 or f+1 and the advantage shrinks or vanishes.
// Experiment E3 sweeps δ/D and f to chart the crossover.
package timing

// Cost describes the per-round time parameters.
type Cost struct {
	// D is the classic round duration (message delay + processing bound).
	D float64
	// Delta is the extra duration of the extended model's control step (δ).
	Delta float64
}

// ExtendedRound returns the duration of one extended-model round, D+δ.
func (c Cost) ExtendedRound() float64 { return c.D + c.Delta }

// ClassicTime returns the completion time of a classic-model run of r rounds.
func (c Cost) ClassicTime(r int) float64 { return float64(r) * c.D }

// ExtendedTime returns the completion time of an extended-model run of r
// rounds.
func (c Cost) ExtendedTime(r int) float64 { return float64(r) * c.ExtendedRound() }

// ClassicOptimalRounds returns the classic-model uniform consensus decision
// bound min(f+2, t+1).
func ClassicOptimalRounds(f, t int) int {
	r := f + 2
	if t+1 < r {
		r = t + 1
	}
	return r
}

// ExtendedOptimalRounds returns the extended-model decision bound f+1
// (Theorems 1 and 4).
func ExtendedOptimalRounds(f int) int { return f + 1 }

// Advantage returns the time gained by running the optimal extended-model
// algorithm instead of the optimal classic-model one, for f actual crashes
// out of t tolerated: positive means the extended model is faster.
func (c Cost) Advantage(f, t int) float64 {
	return c.ClassicTime(ClassicOptimalRounds(f, t)) - c.ExtendedTime(ExtendedOptimalRounds(f))
}

// ExtendedWins reports whether the extended model strictly beats the classic
// model for the given fault count.
func (c Cost) ExtendedWins(f, t int) bool { return c.Advantage(f, t) > 0 }

// CrossoverDelta returns the largest δ (exclusive) for which the extended
// model still beats the classic model with f crashes out of t tolerated:
// δ* = D·(min(f+2,t+1) - (f+1))/(f+1). The extended model wins iff
// δ < δ*. When min(f+2,t+1) == f+1 (i.e. f == t) the crossover is 0: the
// extended model cannot win on time and only ties at δ = 0.
func CrossoverDelta(d float64, f, t int) float64 {
	rc := ClassicOptimalRounds(f, t)
	re := ExtendedOptimalRounds(f)
	return d * float64(rc-re) / float64(re)
}
