//go:build race

package stats

// raceEnabled reports whether the race detector is built in; it slows the
// sequential property walks that cover every input size.
const raceEnabled = true
