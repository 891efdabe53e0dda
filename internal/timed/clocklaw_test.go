package timed

// This file is in-package (not timed_test) so it can reach the engine's
// embedded des.Sim and plant the LIFOTies mutation end-to-end: a mangled
// tie-break key inside the event core must surface as Result.ClockViolation,
// which internal/laws then classifies as the clock law. A timed run puts one
// event per round on the clock, never two at the same time, so the test
// plants the same-time pair the mutation needs before the run starts.

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/laws"
	"repro/internal/sim"
)

func clockLawSystem(n int) []sim.Process {
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = sim.Value(100 + i)
	}
	return core.NewSystem(props, core.Options{})
}

func TestPlantedLIFOTiesSurfacesClockViolation(t *testing.T) {
	eng, err := New(Config{Model: sim.ModelExtended}, clockLawSystem(5), adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	eng.ds.LIFOTies = true
	eng.ds.At(0, func() {})
	eng.ds.At(0, func() {})
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("planted tie reorder aborted the run: %v", err)
	}
	if res.ClockViolation == "" {
		t.Fatal("LIFOTies mutation produced no ClockViolation")
	}
	if !strings.Contains(res.ClockViolation, "FIFO tie order violated") {
		t.Errorf("ClockViolation = %q, want FIFO tie violation", res.ClockViolation)
	}
	aerr := laws.Audit(res)
	if laws.Of(aerr) != laws.LawClock {
		t.Errorf("laws.Audit classified the violation as %q (%v), want %q",
			laws.Of(aerr), aerr, laws.LawClock)
	}
}

func TestCleanRunHasNoClockViolation(t *testing.T) {
	eng, err := New(Config{Model: sim.ModelExtended}, clockLawSystem(5), adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ClockViolation != "" {
		t.Errorf("clean run reported ClockViolation %q", res.ClockViolation)
	}
	if err := laws.Audit(res); err != nil {
		t.Errorf("laws.Audit on clean timed run: %v", err)
	}
}

// TestResultLifetimeClockViolation: the engine rewrites every field of its
// result on each run, so a clean run after one that surfaced a clock
// violation reads none.
func TestResultLifetimeClockViolation(t *testing.T) {
	eng, err := New(Config{Model: sim.ModelExtended}, clockLawSystem(5), adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	eng.ds.LIFOTies = true
	eng.ds.At(0, func() {})
	eng.ds.At(0, func() {})
	res, err := eng.Run()
	if err != nil || res.ClockViolation == "" {
		t.Fatalf("planted tie reorder: ClockViolation %q (%v), want one", res.ClockViolation, err)
	}
	eng.ds.LIFOTies = false
	if err := eng.Reset(Config{Model: sim.ModelExtended}, clockLawSystem(5), adversary.None{}); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ClockViolation != "" {
		t.Errorf("clean run after a violating one reads ClockViolation %q, want none", res.ClockViolation)
	}
}
