package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/agree"
)

// repoRoot is the checkout root as seen from the package directory.
const repoRoot = "../.."

func TestGeneratorDeterminism(t *testing.T) {
	a, b, c := genL(7), genL(7), genL(8)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	jc, _ := json.Marshal(c)
	if !bytes.Equal(ja, jb) {
		t.Fatal("same seed produced different config lists")
	}
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds produced identical crash plans and proposals")
	}
	if len(a) != 48 || len(c) != 48 {
		t.Fatalf("L has %d and %d configurations, want 48", len(a), len(c))
	}
	for i := range a {
		if a[i].Proto != c[i].Proto || a[i].N != c[i].N || a[i].T != c[i].T || a[i].F != c[i].F ||
			len(a[i].Plans) != len(c[i].Plans) || (a[i].Plans == nil) != (c[i].Plans == nil) {
			t.Fatalf("config %d changes shape with the seed: %+v vs %+v", i, a[i], c[i])
		}
		if len(a[i].Plans) > a[i].N/4 {
			t.Fatalf("config %d scripts %d crashes, more than n/4", i, len(a[i].Plans))
		}
	}
	if !reflect.DeepEqual(genServeBlock(3), genServeBlock(3)) || genFuzzBase(3) != genFuzzBase(3) {
		t.Fatal("serve block or fuzz base seed not a function of the seed")
	}
	if genFuzzBase(3) == genFuzzBase(4) || genFuzzBase(3) <= 0 {
		t.Fatal("fuzz base seed does not vary with the seed or is not positive")
	}
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef                           `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wl []string
	for _, w := range decl.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", wl, workloadNames)
	}
	var pl []metricDef
	for _, m := range decl.PerLayer {
		pl = append(pl, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, tab := range []struct {
		key        string
		decl, have []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", pl, driverPerLayer()}} {
		if len(tab.decl) != len(tab.have) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", tab.key, len(tab.decl), len(tab.have))
			continue
		}
		for i, have := range tab.have {
			have.On = nil
			if tab.key == "per_layer" {
				have.Bound = 0 // BENCHMARK.json gives per-layer metrics no bound
			}
			if !reflect.DeepEqual(tab.decl[i], have) {
				t.Errorf("%s[%d]: BENCHMARK.json %v, benchmark %v", tab.key, i, tab.decl[i], have)
			}
		}
	}
	seen := map[string]bool{}
	for _, n := range append(append([]string(nil), wl...), metricNames(endToEnd, driverPerLayer())...) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

func metricNames(tabs ...[]metricDef) []string {
	var out []string
	for _, tab := range tabs {
		for _, m := range tab {
			out = append(out, m.Name)
		}
	}
	return out
}

func TestStatsHelpers(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(v, 99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := percentile(v, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 || spread(nil) != 0 {
		t.Error("empty input must yield 0")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := logLogSlope([]point{{8, 64}, {16, 256}, {32, 1024}}); math.Abs(got-2) > 1e-9 {
		t.Errorf("slope = %v, want 2", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	for op := 0; op < 2; op++ {
		tr.spans = append(tr.spans,
			span{Name: "harness.run", Op: op, Start: 0, End: 100},
			span{Name: "sim.run", Parent: "harness.run", Op: op, Start: 0, End: 70},
			span{Name: "laws.audit", Parent: "harness.run", Op: op, Start: 0, End: 10})
	}
	if got := tr.selfNs("harness.run", tr.perOpNs); got != 20 {
		t.Errorf("self time = %v, want 20", got)
	}
	data, err := tr.chromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil || len(events) != 6+3 {
		t.Fatalf("chrome trace: %v, %d events, want 9 (6 spans + 3 track names)", err, len(events))
	}
}

// sweepDigest runs one pass of a 1%-scale list (every fifth configuration)
// on an engine and returns its digest.
func sweepDigest(t *testing.T, engine agree.EngineKind) string {
	t.Helper()
	w := newSweep("test", engine, 11)
	var L []spec
	for i := 0; i < len(w.L); i += 5 {
		L = append(L, w.L[i])
	}
	w.L, w.cfgs = L, configs(L, engine)
	w.run(0)
	if _, failed := w.check(0); failed != 0 {
		t.Fatalf("%s: %d configurations failed: %v", engine, failed, w.out.Notes)
	}
	return w.digest
}

func TestCrossEngineDigest(t *testing.T) {
	det := sweepDigest(t, agree.EngineDeterministic)
	for _, engine := range []agree.EngineKind{agree.EngineTimed, agree.EngineLockstep} {
		if got := sweepDigest(t, engine); got != det {
			t.Errorf("result_digest on %s = %s, deterministic = %s", engine, got, det)
		}
	}
}

func TestCheckerRejectsCorruptedReports(t *testing.T) {
	s := spec{Proto: agree.ProtocolCRW, N: 8, F: 2, Proposals: genProposals(&rng{s: 1}, 8)}
	run := func() *agree.SweepItem {
		rep, err := agree.Run(s.config(agree.EngineDeterministic))
		if err != nil {
			t.Fatal(err)
		}
		return &agree.SweepItem{Report: rep}
	}
	if why := checkItem(s, run()); why != "" {
		t.Fatalf("clean report rejected: %s", why)
	}
	late := run()
	for id := range late.Report.DecideRound {
		late.Report.DecideRound[id] = s.F + 2
		break
	}
	if why := checkItem(s, late); !strings.Contains(why, "round") {
		t.Errorf("wrong decide round not rejected: %q", why)
	}
	split := run()
	for id, v := range split.Report.Decisions {
		split.Report.Decisions[id] = v + 1
		break
	}
	if why := checkItem(s, split); !strings.Contains(why, "two decisions") {
		t.Errorf("two decisions not rejected: %q", why)
	}
	if n, why := checkFuzzBatch(false, &agree.FuzzReport{Findings: []agree.FuzzFinding{{Seed: 3}}}, nil); n != 1 || why == "" {
		t.Error("finding in the faithful campaign not rejected")
	}
	if n, _ := checkFuzzBatch(true, &agree.FuzzReport{}, nil); n != 1 {
		t.Error("ablation campaign without findings not rejected")
	}
	if why := checkServe(10, &agree.ServeReport{Commands: 10}, nil); why == "" {
		t.Error("session without a recovery not rejected")
	}
}

func TestVerdicts(t *testing.T) {
	m := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) summary { return summarize("1/s", []float64{c * 0.99, c, c, c * 1.01, c}) }
	wide := func(c float64) summary { return summarize("1/s", []float64{c * 0.7, c * 0.9, c, c * 1.1, c * 1.3}) }
	for _, tc := range []struct {
		a, b summary
		want string
	}{
		{tight(100), tight(100), vUnchanged},
		{tight(100), tight(103), vUnchanged},
		{tight(100), tight(80), vRegressed},
		{tight(100), tight(130), vImproved},
		{wide(100), wide(105), vUnresolved},
	} {
		if got, _, _ := verdict(m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
	exact := metricDef{Name: "sim_msgs_per_op", Better: "lower"}
	if got, _, _ := verdict(exact, single("msgs", 150), single("msgs", 151)); got != vRegressed {
		t.Errorf("bound-0 metric that grew: %s, want regressed", got)
	}
}

// TestSmoke is the end-to-end pass at 1% scale, untraced and traced, on every
// workload: the CI hook of the benchmark. The probes that build and execute
// the cmd binaries are left to `run.sh -smoke -trace 1`.
func TestSmoke(t *testing.T) {
	digests := map[string]bool{}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			d, err := runWorkload(runOpts{Root: repoRoot, Workload: name, Seed: 5, Seconds: 0.1,
				Trace: traced, Smoke: true, NoCmd: true, Start: time.Now()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !d.Correct || d.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d notes=%v", name, traced, d.Correct, d.Attempted, d.Notes)
			}
			// result fails on a metric the workload must emit and did not.
			r, err := d.result()
			if err != nil {
				t.Errorf("traced=%v: %v", traced, err)
			}
			if !traced {
				if len(r.Metrics) != len(endToEnd) {
					t.Errorf("%s: %d metrics on the result line, want %d", name, len(r.Metrics), len(endToEnd))
				}
				for _, m := range slices.Concat(endToEnd, hostTime) {
					if v := d.EndToEnd[m.Name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, m.Name, v)
					}
				}
				for _, m := range simEndToEnd {
					if _, ok := d.EndToEnd[m.Name]; ok != m.emittedBy(name) {
						t.Errorf("%s: simulated metric %s emitted=%v, declared=%v", name, m.Name, ok, !ok)
					}
				}
				if dig, ok := d.Digests["result_digest"]; ok {
					digests[dig] = true
				}
				continue
			}
			for _, m := range driverPerLayer() {
				if _, ok := d.PerLayer[m.Name]; ok && !m.emittedBy(name) {
					t.Errorf("%s emits %s, which its On list does not declare", name, m.Name)
				}
			}
		}
	}
	if len(digests) != 1 {
		t.Errorf("the three sweeps printed %d different result_digests, want 1", len(digests))
	}
}
