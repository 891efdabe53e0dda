package agree_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/agree"
)

// telemetryShapes are E-series workload shapes, one per engine: telemetry
// instrumentation rides every hot path these exercise. TestRunAllocs pins
// their allocation counts with telemetry off.
func telemetryShapes() map[string]agree.Config {
	return map[string]agree.Config{
		"e1-failure-free": {N: 64},
		"deterministic":   {N: 32, Faults: agree.CoordinatorCrashes(4)},
		"lockstep":        {N: 32, Engine: agree.EngineLockstep, Faults: agree.CoordinatorCrashes(4)},
		"timed": {N: 32, Engine: agree.EngineTimed,
			Latency: agree.JitterLatency(7, 1, 0.1, 0.1, 0.85),
			Faults:  agree.CoordinatorCrashes(4)},
	}
}

// TestTelemetryByteIdenticalRuns checks the determinism law on the
// telemetry plane: two independent runs of one configuration export
// byte-identical metrics JSON, Chrome traces and text timelines, on every
// deterministic engine.
func TestTelemetryByteIdenticalRuns(t *testing.T) {
	for name, cfg := range telemetryShapes() {
		t.Run(name, func(t *testing.T) {
			// The law check requires an engine with the deterministic
			// capability; lockstep makes no formal promise, so it gets the
			// direct byte comparison below instead (its barrier discipline
			// makes round-boundary sampling scheduling-independent for
			// order-insensitive faults).
			if cfg.Engine != agree.EngineLockstep {
				if err := agree.VerifyTelemetryDeterminism(cfg); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Telemetry = true
			first, err := agree.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			second, err := agree.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first.Telemetry == nil {
				t.Fatal("Config.Telemetry set but Report.Telemetry is nil")
			}
			if a, b := first.Telemetry.MetricsJSON(), second.Telemetry.MetricsJSON(); !bytes.Equal(a, b) {
				t.Errorf("metrics JSON differs across two runs:\n%s\nvs\n%s", a, b)
			}
			if a, b := first.Telemetry.ChromeTrace(), second.Telemetry.ChromeTrace(); !bytes.Equal(a, b) {
				t.Errorf("Chrome trace differs across two runs:\n%s\nvs\n%s", a, b)
			}
			if a, b := first.Telemetry.Timeline(), second.Telemetry.Timeline(); a != b {
				t.Errorf("timelines differ:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestTelemetryByteIdenticalAcrossWorkers checks that sweep worker
// scheduling cannot leak into telemetry: the same config batch swept at
// Workers=1 and Workers=4 yields byte-identical per-item telemetry exports.
func TestTelemetryByteIdenticalAcrossWorkers(t *testing.T) {
	var configs []agree.Config
	for _, cfg := range telemetryShapes() {
		cfg.Telemetry = true
		configs = append(configs, cfg)
	}
	// Pad with more work so four workers actually interleave.
	for f := 0; f <= 3; f++ {
		configs = append(configs, agree.Config{N: 16, Telemetry: true,
			Faults: agree.CoordinatorCrashes(f)})
	}
	want := agree.Sweep(configs, agree.SweepOptions{Workers: 1})
	got := agree.Sweep(configs, agree.SweepOptions{Workers: 4})
	for i := range configs {
		a, b := want.Items[i].Report, got.Items[i].Report
		if a == nil || b == nil {
			t.Fatalf("config %d: missing report (%v, %v)", i, want.Items[i].Err, got.Items[i].Err)
		}
		if a.Telemetry == nil || b.Telemetry == nil {
			t.Fatalf("config %d: missing telemetry attachment", i)
		}
		if !bytes.Equal(a.Telemetry.MetricsJSON(), b.Telemetry.MetricsJSON()) {
			t.Errorf("config %d: metrics JSON differs between Workers=1 and Workers=4", i)
		}
		if !bytes.Equal(a.Telemetry.ChromeTrace(), b.Telemetry.ChromeTrace()) {
			t.Errorf("config %d: Chrome trace differs between Workers=1 and Workers=4", i)
		}
	}
}

// TestServeTelemetryDeterminism extends the service determinism law to the
// telemetry artifacts: VerifyServeDeterminism with ServeConfig.Telemetry set
// compares the metrics and trace bytes of the two runs too.
func TestServeTelemetryDeterminism(t *testing.T) {
	cfg := agree.ServeConfig{
		N:           4,
		Workload:    agree.PoissonArrivals(5, 1),
		MaxCommands: 40,
		Telemetry:   true,
	}
	if err := agree.VerifyServeDeterminism(cfg); err != nil {
		t.Fatal(err)
	}
	rep, err := agree.Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := rep.Telemetry()
	if tel == nil {
		t.Fatal("ServeConfig.Telemetry set but report carries no telemetry")
	}
	var doc struct {
		Slots []struct {
			Slot    int     `json:"slot"`
			Latency float64 `json:"latency"`
			Batch   int     `json:"batch"`
		} `json:"slots"`
	}
	if err := json.Unmarshal(tel.SlotTimelineJSON(), &doc); err != nil {
		t.Fatalf("slot timeline is not valid JSON: %v", err)
	}
	if len(doc.Slots) != rep.Slots {
		t.Errorf("slot timeline has %d slots, report says %d", len(doc.Slots), rep.Slots)
	}
	var batched int
	for _, s := range doc.Slots {
		if s.Latency <= 0 {
			t.Errorf("slot %d: non-positive latency %g", s.Slot, s.Latency)
		}
		batched += s.Batch
	}
	if batched != rep.Commands {
		t.Errorf("slot batches sum to %d commands, report says %d", batched, rep.Commands)
	}
	if tel.LatencyTable() == "" {
		t.Error("service run produced an empty latency table")
	}
}

// chromeEvent is the subset of the trace_event schema the exports use.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestChromeTraceValidity checks the Chrome trace export of a real run on
// every engine: the JSON unmarshals into trace_event records, timestamps are
// monotone within each track, durations are non-negative, and the run span
// covers every round span.
func TestChromeTraceValidity(t *testing.T) {
	for name, cfg := range telemetryShapes() {
		t.Run(name, func(t *testing.T) {
			cfg.Telemetry = true
			rep, err := agree.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var events []chromeEvent
			if err := json.Unmarshal(rep.Telemetry.ChromeTrace(), &events); err != nil {
				t.Fatalf("Chrome trace is not valid JSON: %v", err)
			}
			lastTS := map[int]float64{}
			var runStart, runEnd float64
			var rounds int
			haveRun := false
			for _, e := range events {
				switch e.Ph {
				case "M":
					if e.Name != "thread_name" {
						t.Errorf("unexpected metadata event %q", e.Name)
					}
				case "X":
					if e.Dur < 0 {
						t.Errorf("event %q has negative duration %g", e.Name, e.Dur)
					}
					if prev, ok := lastTS[e.TID]; ok && e.TS < prev {
						t.Errorf("event %q ts %g before previous ts %g on tid %d", e.Name, e.TS, prev, e.TID)
					}
					lastTS[e.TID] = e.TS
					switch e.Cat {
					case "run":
						haveRun = true
						runStart, runEnd = e.TS, e.TS+e.Dur
					case "round":
						rounds++
					}
				default:
					t.Errorf("unexpected phase %q in event %q", e.Ph, e.Name)
				}
			}
			if !haveRun {
				t.Fatal("trace has no run span")
			}
			if rounds != rep.Rounds {
				t.Errorf("trace has %d round spans, report ran %d rounds", rounds, rep.Rounds)
			}
			for _, e := range events {
				if e.Ph != "X" || e.Cat != "round" {
					continue
				}
				if e.TS < runStart || e.TS+e.Dur > runEnd {
					t.Errorf("round span %q [%g, %g] escapes the run span [%g, %g]",
						e.Name, e.TS, e.TS+e.Dur, runStart, runEnd)
				}
			}
			if cfg.Engine == agree.EngineTimed {
				var batches int
				for _, e := range events {
					if e.Cat == "batch" {
						batches++
					}
				}
				if batches == 0 {
					t.Error("timed run recorded no DES event-batch spans")
				}
			}
		})
	}
}

// TestTelemetryExcludedFromReportJSON pins the canonical-report contract:
// enabling telemetry must not change the report's JSON serialization (the
// determinism law and golden reports compare those bytes).
func TestTelemetryExcludedFromReportJSON(t *testing.T) {
	cfg := agree.Config{N: 8, Faults: agree.CoordinatorCrashes(1)}
	plain, err := agree.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = true
	instrumented, err := agree.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("telemetry leaks into report JSON:\n%s\nvs\n%s", a, b)
	}
}

// TestScenarioTelemetry checks the scenario runner's telemetry plumbing: an
// opted-in run attaches a recorder per (scenario, engine) result with spans
// covering the reported rounds.
func TestScenarioTelemetry(t *testing.T) {
	rep, err := agree.RunScenarios(agree.ScenarioOptions{
		Dir: "../scenarios", Names: []string{"crash/coordinator-n4"}, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for i := range rep.Results {
		res := &rep.Results[i]
		if res.Skipped {
			continue
		}
		ran++
		tel := res.Telemetry()
		if tel == nil {
			t.Fatalf("%s on %s: no telemetry attached", res.Name, res.Engine)
		}
		var events []chromeEvent
		if err := json.Unmarshal(tel.ChromeTrace(), &events); err != nil {
			t.Fatalf("%s on %s: invalid trace: %v", res.Name, res.Engine, err)
		}
		rounds := 0
		for _, e := range events {
			if e.Ph == "X" && e.Cat == "round" {
				rounds++
			}
		}
		if rounds != res.Rounds {
			t.Errorf("%s on %s: %d round spans, report ran %d rounds",
				res.Name, res.Engine, rounds, res.Rounds)
		}
	}
	if ran == 0 {
		t.Fatal("scenario run executed nothing")
	}
	// Off by default: no recorder unless opted in.
	plain, err := agree.RunScenarios(agree.ScenarioOptions{
		Dir: "../scenarios", Names: []string{"crash/coordinator-n4"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Results {
		if !plain.Results[i].Skipped && plain.Results[i].Telemetry() != nil {
			t.Fatal("telemetry attached without opting in")
		}
	}
}

// ExampleTelemetry_Timeline shows the text timeline of a small instrumented
// run.
func ExampleTelemetry_Timeline() {
	rep, err := agree.Run(agree.Config{N: 4, Telemetry: true})
	if err != nil {
		panic(err)
	}
	fmt.Print(rep.Telemetry.Timeline())
	// Output:
	// engine   [           0,            1] run 0 (count=1)
	// engine   [           0,            1] round 1
}
