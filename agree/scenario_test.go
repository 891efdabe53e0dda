package agree_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/agree"
)

// writeCatalog materializes a scenario catalog in a temp dir; keys of files
// are catalog-relative paths.
func writeCatalog(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, text := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// smallCatalog is a three-entry catalog spanning the scenario classes: a
// crash scenario with pinned bounds, an omission scenario (consensus-only
// judging; CRW is crash-tolerant, so the send omission breaks agreement and
// the scenario pins exactly that), and a timed-only latency scenario.
func smallCatalog(t *testing.T) string {
	return writeCatalog(t, map[string]string{
		"crash/coordinator.scenario": "scenario: crash/coordinator\nn: 4\nfaults: p1@r1:/0\nexpect: pass\nrounds: 2\ndecide-round-max: 2\n",
		"omission/send.scenario":     "scenario: omission/send\nn: 4\nfaults: p1@r1:so:1000/1111\nexpect: agreement\n",
		"timing/fixed.scenario":      "scenario: timing/fixed\nn: 4\nengines: timed\nlatency: fixed d=1 delta=0.1\nexpect: pass\nsimtime: 1.1\n",
	})
}

func TestRunScenariosCatalog(t *testing.T) {
	rep, err := agree.RunScenarios(agree.ScenarioOptions{Dir: smallCatalog(t)})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	if rep.Scenarios != 3 {
		t.Fatalf("Scenarios = %d, want 3", rep.Scenarios)
	}
	// crash + omission run on all three engines, timing on its one engine.
	if rep.Ran != 7 || rep.Skipped != 0 || rep.Failed != 0 {
		t.Fatalf("Ran/Skipped/Failed = %d/%d/%d, want 7/0/0", rep.Ran, rep.Skipped, rep.Failed)
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Errorf("%s on %s: %v", r.Name, r.Engine, r.Err)
		}
	}
	// Deterministic order: catalog order (sorted names), then engine kind.
	var order []string
	for _, r := range rep.Results {
		order = append(order, r.Name+"/"+string(r.Engine))
	}
	want := []string{
		"crash/coordinator/deterministic", "crash/coordinator/lockstep", "crash/coordinator/timed",
		"omission/send/deterministic", "omission/send/lockstep", "omission/send/timed",
		"timing/fixed/timed",
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("result order %v, want %v", order, want)
	}
}

func TestRunScenariosDeterministicAcrossWorkers(t *testing.T) {
	dir := smallCatalog(t)
	var runs []*agree.ScenarioReport
	for _, workers := range []int{1, 4} {
		rep, err := agree.RunScenarios(agree.ScenarioOptions{Dir: dir, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		runs = append(runs, rep)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("results differ across worker counts:\n%+v\nvs\n%+v", runs[0], runs[1])
	}
}

// TestScenarioWrongVerdictCaught plants a scenario whose expected verdict is
// wrong for the run it describes: the failure must name the scenario file and
// the diverging field with observed-vs-expected values.
func TestScenarioWrongVerdictCaught(t *testing.T) {
	dir := writeCatalog(t, map[string]string{
		"planted/wrong-verdict.scenario": "scenario: planted/wrong-verdict\nn: 4\nexpect: agreement\n",
	})
	rep, err := agree.RunScenarios(agree.ScenarioOptions{Dir: dir, Engines: []agree.EngineKind{agree.EngineDeterministic}})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	if rep.Failed != 1 || len(rep.Results) != 1 {
		t.Fatalf("Failed = %d (results %d), want 1 failure", rep.Failed, len(rep.Results))
	}
	got := rep.Results[0].Err
	if got == nil {
		t.Fatal("planted wrong verdict not caught")
	}
	for _, want := range []string{"planted/wrong-verdict.scenario", "deterministic", "verdict pass, expected agreement"} {
		if !strings.Contains(got.Error(), want) {
			t.Errorf("error %q does not mention %q", got, want)
		}
	}
}

// TestScenarioWrongBoundCaught plants scenarios with wrong round and
// decide-round bounds: each must fail naming the file and the field.
func TestScenarioWrongBoundCaught(t *testing.T) {
	dir := writeCatalog(t, map[string]string{
		"planted/wrong-rounds.scenario": "scenario: planted/wrong-rounds\nn: 4\nexpect: pass\nrounds: 99\n",
		"planted/wrong-decide.scenario": "scenario: planted/wrong-decide\nn: 4\nfaults: p1@r1:/0\nexpect: pass\ndecide-round-max: 1\n",
	})
	rep, err := agree.RunScenarios(agree.ScenarioOptions{Dir: dir, Engines: []agree.EngineKind{agree.EngineDeterministic}})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	if rep.Failed != 2 {
		t.Fatalf("Failed = %d, want 2", rep.Failed)
	}
	wants := map[string][]string{
		"planted/wrong-decide": {"planted/wrong-decide.scenario", "decide round", "expected <= 1"},
		"planted/wrong-rounds": {"planted/wrong-rounds.scenario", "rounds", "expected 99"},
	}
	for _, r := range rep.Results {
		for _, want := range wants[r.Name] {
			if r.Err == nil || !strings.Contains(r.Err.Error(), want) {
				t.Errorf("%s: error %v does not mention %q", r.Name, r.Err, want)
			}
		}
	}
}

// TestScenarioExpectedViolationPasses checks the other direction: a scenario
// whose expected verdict is a violation passes exactly when the violation
// reproduces on every engine. CRW is crash-tolerant, not omission-tolerant:
// a coordinator that send-omits its decision to everyone but itself breaks
// uniform agreement, and the scenario pins that as its expected verdict.
func TestScenarioExpectedViolationPasses(t *testing.T) {
	src := agree.ScenarioSource{
		File: "omission.scenario",
		Text: "scenario: omission/coordinator-keeps-decision\nn: 4\nfaults: p1@r1:so:1000/1111\nexpect: agreement\n",
	}
	rep, err := agree.RunScenarios(agree.ScenarioOptions{Sources: []agree.ScenarioSource{src}})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Errorf("%s on %s: %v", r.Name, r.Engine, r.Err)
		}
		if r.Verdict != "agreement" {
			t.Errorf("%s on %s: verdict %q, want agreement", r.Name, r.Engine, r.Verdict)
		}
	}
}

// TestScenarioDefaultT pins the classic baselines' default resilience: a
// scenario without a t line runs and is judged with t = n-1, as a Config or
// a fuzz campaign with T unset is. One crash that delivers p1's first data
// message only must then pass on every engine.
func TestScenarioDefaultT(t *testing.T) {
	var srcs []agree.ScenarioSource
	for _, proto := range []string{"earlystop", "floodset"} {
		srcs = append(srcs, agree.ScenarioSource{
			File: proto + ".scenario",
			Text: "scenario: crash/" + proto + "-default-t\nprotocol: " + proto +
				"\nn: 4\nfaults: p1@r1:100/0\nexpect: pass\n",
		})
	}
	rep, err := agree.RunScenarios(agree.ScenarioOptions{Sources: srcs})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	if rep.Ran != 2*3 || rep.Failed != 0 {
		t.Errorf("Ran/Failed = %d/%d, want 6/0", rep.Ran, rep.Failed)
	}
	for _, r := range rep.Results {
		if r.Err != nil || r.Verdict != "pass" {
			t.Errorf("%s on %s: verdict %q, err %v", r.Name, r.Engine, r.Verdict, r.Err)
		}
	}
}

func TestScenarioEngineSemantics(t *testing.T) {
	latencyScenario := "scenario: timing/fixed\nn: 4\nlatency: fixed d=1 delta=0.1\nexpect: pass\n"

	// Default expansion: a latency scenario skips round engines.
	rep, err := agree.RunScenarios(agree.ScenarioOptions{
		Sources: []agree.ScenarioSource{{File: "timing.scenario", Text: latencyScenario}},
	})
	if err != nil {
		t.Fatalf("default expansion: %v", err)
	}
	if rep.Ran != 1 || rep.Skipped != 2 || rep.Failed != 0 {
		t.Fatalf("Ran/Skipped/Failed = %d/%d/%d, want 1/2/0", rep.Ran, rep.Skipped, rep.Failed)
	}
	for _, r := range rep.Results {
		if r.Skipped && !strings.Contains(r.SkipReason, "timed capability") {
			t.Errorf("skip reason %q does not explain the capability gap", r.SkipReason)
		}
	}

	// The Engines override is a sweep knob with the same skip semantics.
	rep, err = agree.RunScenarios(agree.ScenarioOptions{
		Sources: []agree.ScenarioSource{{File: "timing.scenario", Text: latencyScenario}},
		Engines: []agree.EngineKind{agree.EngineLockstep},
	})
	if err != nil {
		t.Fatalf("override expansion: %v", err)
	}
	if rep.Ran != 0 || rep.Skipped != 1 {
		t.Fatalf("override: Ran/Skipped = %d/%d, want 0/1", rep.Ran, rep.Skipped)
	}

	// A scenario's own engines list is strict: a round engine under a latency
	// model is a load error naming the file, not a silent skip.
	strict := "scenario: timing/strict\nn: 4\nengines: lockstep\nlatency: fixed d=1 delta=0.1\nexpect: pass\n"
	_, err = agree.RunScenarios(agree.ScenarioOptions{
		Sources: []agree.ScenarioSource{{File: "strict.scenario", Text: strict}},
	})
	if err == nil || !strings.Contains(err.Error(), "strict.scenario") || !strings.Contains(err.Error(), "timed capability") {
		t.Fatalf("strict engine mismatch not a load error: %v", err)
	}

	// Unknown kinds are errors in both positions.
	if _, err := agree.RunScenarios(agree.ScenarioOptions{
		Sources: []agree.ScenarioSource{{Text: "scenario: x\nn: 3\nexpect: pass\n"}},
		Engines: []agree.EngineKind{"quantum"},
	}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("unknown override engine not caught: %v", err)
	}
	if _, err := agree.RunScenarios(agree.ScenarioOptions{
		Sources: []agree.ScenarioSource{{Text: "scenario: x\nn: 3\nengines: quantum\nexpect: pass\n"}},
	}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("unknown scenario engine not caught: %v", err)
	}
}

func TestScenarioNameSelection(t *testing.T) {
	dir := smallCatalog(t)
	rep, err := agree.RunScenarios(agree.ScenarioOptions{
		Dir:     dir,
		Names:   []string{"omission/send", "crash/coordinator"},
		Engines: []agree.EngineKind{agree.EngineDeterministic},
	})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	if len(rep.Results) != 2 || rep.Results[0].Name != "omission/send" || rep.Results[1].Name != "crash/coordinator" {
		t.Fatalf("name selection order wrong: %+v", rep.Results)
	}
	if _, err := agree.RunScenarios(agree.ScenarioOptions{Dir: dir, Names: []string{"no/such"}}); err == nil ||
		!strings.Contains(err.Error(), `unknown scenario "no/such"`) {
		t.Fatalf("unknown name not caught: %v", err)
	}
}

func TestScenarioDuplicateNamesRejected(t *testing.T) {
	src := agree.ScenarioSource{Text: "scenario: dup\nn: 3\nexpect: pass\n"}
	if _, err := agree.RunScenarios(agree.ScenarioOptions{
		Sources: []agree.ScenarioSource{src, src},
	}); err == nil || !strings.Contains(err.Error(), "duplicate scenario name") {
		t.Fatalf("duplicate names not caught: %v", err)
	}
}

// TestScenarioSimTimePinning checks that a timed scenario can pin its exact
// simulated completion time: the same scenario re-run must reproduce SimTime
// bit-for-bit, and a wrong pin must fail naming the field.
func TestScenarioSimTimePinning(t *testing.T) {
	probe := agree.ScenarioSource{
		File: "probe.scenario",
		Text: "scenario: timing/pin\nn: 4\nengines: timed\nlatency: fixed d=1 delta=0.1\nexpect: pass\n",
	}
	rep, err := agree.RunScenarios(agree.ScenarioOptions{Sources: []agree.ScenarioSource{probe}})
	if err != nil || rep.Failed != 0 {
		t.Fatalf("probe run: err=%v failed=%d", err, rep.Failed)
	}
	simTime := rep.Results[0].SimTime
	if simTime <= 0 {
		t.Fatalf("timed run has no SimTime: %+v", rep.Results[0])
	}

	pinned := probe
	pinned.Text = strings.Replace(probe.Text, "expect: pass\n",
		"expect: pass\nsimtime: "+strconv.FormatFloat(simTime, 'g', -1, 64)+"\n", 1)
	rep, err = agree.RunScenarios(agree.ScenarioOptions{Sources: []agree.ScenarioSource{pinned}})
	if err != nil {
		t.Fatalf("pinned run: %v", err)
	}
	if rep.Failed != 0 {
		t.Fatalf("exact simtime pin did not reproduce (pinned %g): %v", simTime, rep.Results[0].Err)
	}

	wrong := probe
	wrong.Text = strings.Replace(probe.Text, "expect: pass\n", "expect: pass\nsimtime-max: 0.001\n", 1)
	rep, err = agree.RunScenarios(agree.ScenarioOptions{Sources: []agree.ScenarioSource{wrong}})
	if err != nil {
		t.Fatalf("wrong-pin run: %v", err)
	}
	if rep.Failed != 1 || !strings.Contains(rep.Results[0].Err.Error(), "simtime") {
		t.Fatalf("wrong simtime bound not caught: %+v", rep.Results[0])
	}
}
