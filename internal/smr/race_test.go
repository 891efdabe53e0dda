//go:build race

package smr

// raceEnabled reports whether the race detector is built in; it slows the
// heap reference's overload session past what a race pass should spend.
const raceEnabled = true
