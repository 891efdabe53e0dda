package agree_test

import (
	"testing"

	"repro/agree"
)

// TestRunAllocs pins the exact allocation count of one agree.Run on a fresh
// engine for the E-series workload shapes, the protocol, engine set-up and
// report assembly included. Any increase fails; when a change lowers a count,
// ratchet its pin down to the new figure in the same change. The rows without
// telemetry pin the disabled recorder path exactly; the telemetry rows price
// enabling it on the deterministic and the timed engine. The race detector
// adds one allocation to every row, so a -race build holds each row to its
// own measured race figure.
func TestRunAllocs(t *testing.T) {
	timed := agree.Config{N: 32, Engine: agree.EngineTimed,
		Latency: agree.JitterLatency(7, 1, 0.1, 0.1, 0.85),
		Faults:  agree.CoordinatorCrashes(4)}
	timedTelemetry := timed
	timedTelemetry.Telemetry = true
	rows := []struct {
		name      string
		cfg       agree.Config
		pin, race float64 // race: the pin under the race detector
	}{
		{"E1FailureFree", agree.Config{N: 64}, 21, 22},
		{"E1RoundsVsFaults", agree.Config{N: 32, Faults: agree.CoordinatorCrashes(8)}, 23, 24},
		{"E4EarlyStop", agree.Config{N: 32, T: 31, Protocol: agree.ProtocolEarlyStop,
			Faults: agree.CoordinatorCrashes(2)}, 25, 26},
		{"E4FloodSet", agree.Config{N: 32, T: 8, Protocol: agree.ProtocolFloodSet}, 24, 25},
		{"DeterministicEngine", agree.Config{N: 32, Faults: agree.CoordinatorCrashes(4)}, 23, 24},
		{"TimedEngine", timed, 39, 40},
		{"LockstepEngine", agree.Config{N: 32, Engine: agree.EngineLockstep,
			Faults: agree.CoordinatorCrashes(4)}, 30, 31},
		{"E1FailureFreeTelemetry", agree.Config{N: 64, Telemetry: true}, 32, 33},
		{"TimedEngineTelemetry", timedTelemetry, 79, 80},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(20, func() {
				rep, err := agree.Run(row.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.ConsensusErr != nil {
					t.Fatal(rep.ConsensusErr)
				}
			})
			pin := row.pin
			if raceEnabled {
				pin = row.race
			}
			if allocs > pin {
				t.Errorf("agree.Run allocates %v allocs/run, pinned at %v; ratchet the pin down when the count falls",
					allocs, pin)
			}
		})
	}
}
