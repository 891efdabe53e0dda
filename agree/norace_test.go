//go:build !race

package agree_test

// raceEnabled reports whether the race detector is built in; it adds
// allocations of its own, so exact allocation pins hold a second figure.
const raceEnabled = false
