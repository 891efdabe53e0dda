package smr

// RaceEnabled exports raceEnabled to the external tests, whose allocation
// pins hold a second figure under the race detector.
const RaceEnabled = raceEnabled
