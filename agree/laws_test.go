package agree_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/agree"
)

// eSeriesConfigs mirrors the E-series experiment grids (internal/experiments)
// at sizes the three engines all handle quickly: E1's worst-case coordinator
// grid and non-coordinator scripts, E4/E9's protocol triples, E2's
// adversarial bit-complexity schedule, and the omission experiments' scripted
// schedules. Every run's report must satisfy the conservation identity —
// sent == delivered + recv-omitted + late + dead-dest + halted-dest per kind.
func eSeriesConfigs(t *testing.T) []agree.Config {
	var configs []agree.Config
	// E1: worst-case coordinator crashes.
	for _, n := range []int{4, 8, 16} {
		for _, f := range []int{0, 1, 2, n / 2, n - 1} {
			if f >= n {
				continue
			}
			configs = append(configs, agree.Config{N: n, Protocol: agree.ProtocolCRW,
				Faults: agree.CoordinatorCrashes(f)})
		}
	}
	// E1: non-coordinator crashes decide in one round.
	for _, n := range []int{8, 16} {
		configs = append(configs, agree.Config{N: n, Protocol: agree.ProtocolCRW,
			Faults: agree.ScriptedFaults(map[int]agree.CrashPlan{
				n:     {Round: 1},
				n - 1: {Round: 1},
			})})
	}
	// E4/E9: protocol triples under the same fault schedule.
	for _, n := range []int{4, 8} {
		tt := n - 1
		for _, f := range []int{0, 1, n / 2} {
			configs = append(configs,
				agree.Config{N: n, Protocol: agree.ProtocolCRW,
					Faults: agree.CoordinatorCrashes(f)},
				agree.Config{N: n, T: tt, Protocol: agree.ProtocolEarlyStop,
					Faults: agree.CoordinatorCrashes(f)},
				agree.Config{N: n, T: tt, Protocol: agree.ProtocolFloodSet,
					Faults: agree.CoordinatorCrashes(f)})
		}
	}
	// E2: the adversarial schedule that maximizes transmitted data.
	for _, n := range []int{4, 8} {
		configs = append(configs, agree.Config{N: n, Bits: 256,
			Faults: agree.CoordinatorCrashesDelivering(n-1, 0)})
		configs = append(configs, agree.Config{N: n,
			Faults: agree.CoordinatorCrashesDelivering(1, agree.CtrlAll)})
	}
	// E15: scripted omissions (deterministic, so all engines agree).
	omissions, err := agree.ReplayFaults("p2@r1:so:0000/0000;p3@r1:ro:0111")
	if err != nil {
		t.Fatal(err)
	}
	configs = append(configs, agree.Config{N: 4, Protocol: agree.ProtocolCRW, Faults: omissions})
	return configs
}

// TestConservationAcrossESeries pins the message-conservation law on every
// E-series configuration for all three engines. The harness audits each run
// internally as well — this test re-checks the identity on the public Report,
// proving the ledger survives the report assembly, and fails with the books
// spelled out if an engine ever leaks or double-counts a message.
func TestConservationAcrossESeries(t *testing.T) {
	for _, engine := range []agree.EngineKind{
		agree.EngineDeterministic, agree.EngineLockstep, agree.EngineTimed,
	} {
		engine := engine
		t.Run(string(engine), func(t *testing.T) {
			t.Parallel()
			for _, cfg := range eSeriesConfigs(t) {
				cfg.Engine = engine
				rep, err := agree.Run(cfg)
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				l, c := &rep.Ledger, &rep.Counters
				if got := l.SinkData(); got != c.DataMsgs {
					t.Errorf("%s %+v: %d data messages transmitted, sinks account for %d (%s)",
						engine, cfg.Faults, c.DataMsgs, got, l.String())
				}
				if got := l.SinkCtrl(); got != c.CtrlMsgs {
					t.Errorf("%s %+v: %d control messages transmitted, sinks account for %d (%s)",
						engine, cfg.Faults, c.CtrlMsgs, got, l.String())
				}
				if got := l.RecvOmitData + l.RecvOmitCtrl; got != c.OmittedRecv {
					t.Errorf("%s %+v: ledger receive omissions %d != Counters.OmittedRecv %d",
						engine, cfg.Faults, got, c.OmittedRecv)
				}
			}
		})
	}
}

// TestVerifyDeterminismAcrossESeries checks the determinism law on a slice of
// the E-series grid: byte-identical serialized reports across re-runs and
// JSON round-trips, on both deterministic-capable engines.
func TestVerifyDeterminismAcrossESeries(t *testing.T) {
	cases := []agree.Config{
		{N: 8},
		{N: 8, Faults: agree.CoordinatorCrashes(3)},
		{N: 5, T: 4, Protocol: agree.ProtocolEarlyStop, Faults: agree.CoordinatorCrashes(2)},
		{N: 4, Faults: agree.CoordinatorCrashesDelivering(1, agree.CtrlAll)},
		{N: 4, Engine: agree.EngineTimed, Latency: agree.JitterLatency(7, 1, 0.2, 0.1, 0.5)},
		{N: 6, Engine: agree.EngineTimed, Faults: agree.CoordinatorCrashes(2)},
	}
	for i, cfg := range cases {
		if err := agree.VerifyDeterminism(cfg); err != nil {
			t.Errorf("case %d (%+v): %v", i, cfg, err)
		}
	}
}

// TestVerifyDeterminismRejectsLockstep pins the capability gate: the lockstep
// runtime makes no bit-identical promise, so the determinism law refuses it
// rather than reporting flaky violations.
func TestVerifyDeterminismRejectsLockstep(t *testing.T) {
	err := agree.VerifyDeterminism(agree.Config{N: 4, Engine: agree.EngineLockstep})
	if err == nil {
		t.Fatal("VerifyDeterminism accepted the lockstep engine")
	}
	want := fmt.Sprintf("engine %q makes no determinism promise", agree.EngineLockstep)
	if got := err.Error(); !strings.Contains(got, want) {
		t.Errorf("error = %q, want mention of %q", got, want)
	}
}
