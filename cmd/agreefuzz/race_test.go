//go:build race

package main

// raceEnabled reports whether the race detector is built in; it slows the
// round kernel about eightfold, so the long golden campaigns run scaled
// down (see TestMain).
const raceEnabled = true
