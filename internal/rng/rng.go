// Package rng is the repository's one seeded random generator: the
// SplitMix64 stream and its finalizer.
//
// A Stream is a single uint64 held by value, so seeding or re-seeding one
// is an assignment, and equal seeds draw equal sequences on every platform
// and Go release. The sequential stream serves the consumers that draw in a
// fixed order (the fuzz walk, the random adversaries, the arrival
// generators); Mix is the stateless hash the timed engine's jitter and the
// service's per-slot seeds are built from, where sampling order must not
// matter.
package rng

import (
	"math"
	"math/bits"
)

// golden is SplitMix64's stream increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash. It is
// the output function of the stream: the stream seeded with s yields
// Mix(s), Mix(s+golden), Mix(s+2·golden), ….
func Mix(x uint64) uint64 {
	x += golden
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Stream is a deterministic SplitMix64 random stream. The zero value is the
// stream seeded with 0.
type Stream struct{ s uint64 }

// New returns the stream seeded with seed.
func New(seed int64) Stream { return Stream{s: uint64(seed)} }

// Uint64 returns the next 64 random bits.
func (r *Stream) Uint64() uint64 {
	x := Mix(r.s)
	r.s += golden
	return x
}

// Float64 returns a uniform sample in [0, 1).
func (r *Stream) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn returns a sample in [0, n) by Lemire's multiply-shift: the high word
// of the 64×64-bit product of one draw and n. It spends exactly one draw;
// its bias, at most n/2^64 per value, is far below anything a campaign can
// observe. It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn argument must be positive")
	}
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Exp returns an exponential sample with the given mean.
func (r *Stream) Exp(mean float64) float64 {
	// 1 - Float64() is in (0, 1], so the log is finite.
	return -mean * math.Log(1-r.Float64())
}
