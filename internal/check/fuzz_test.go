package check_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sim"
)

// FuzzConsensusValidators is the native fuzz target for the consensus
// oracles: arbitrary bytes are decoded into a system size within the
// exhaustively-verified envelope (n <= 5, t <= 2, the E5 space) plus a
// choice script for the chooser-driven adversary, and the resulting
// execution of the faithful algorithm must satisfy uniform consensus and
// the f+1 round bound. Any input the fuzzer finds that trips an oracle is
// either an engine/protocol bug or an oracle bug — both fatal.
//
// Run the checked-in corpus as part of the normal test suite, or hunt with
//
//	go test -fuzz=FuzzConsensusValidators -fuzztime=20s ./internal/check
func FuzzConsensusValidators(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0, 0, 0, 1})
	f.Add([]byte{4, 2, 1, 1, 1, 0, 1, 0, 2})
	f.Add([]byte{5, 2, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]%4)  // 2..5
		tt := 1 + int(data[1]%2) // 1..2
		if tt >= n {
			tt = n - 1
		}
		script := make([]int, 0, len(data)-2)
		for _, b := range data[2:] {
			script = append(script, int(b))
		}
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = sim.Value(10 + i)
		}
		adv := adversary.NewFromChooser(&check.Replayer{Values: script}, tt, sim.Round(n))
		eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended, Horizon: sim.Round(n + 2)},
			core.NewSystem(props, core.Options{}), adv)
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := eng.Run()
		if runErr != nil {
			t.Fatalf("n=%d t=%d script %v: engine: %v", n, tt, script, runErr)
		}
		if err := check.Consensus(props, res); err != nil {
			t.Fatalf("n=%d t=%d script %v: %v", n, tt, script, err)
		}
		if err := check.RoundBound(res, check.BoundFPlus1); err != nil {
			t.Fatalf("n=%d t=%d script %v: %v", n, tt, script, err)
		}
	})
}
