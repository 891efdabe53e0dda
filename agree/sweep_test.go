package agree_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/agree"
)

// mixedSweepBatch builds a batch spanning protocols, engines and fault
// styles whose reports are deterministic (order-insensitive adversaries on
// the lockstep configs, seeded randomness only on the deterministic engine).
func mixedSweepBatch() []agree.Config {
	var configs []agree.Config
	for n := 3; n <= 8; n++ {
		configs = append(configs,
			agree.Config{N: n},
			agree.Config{N: n, Faults: agree.CoordinatorCrashes(n / 2)},
			agree.Config{N: n, Faults: agree.CoordinatorCrashesDelivering(n/2, agree.CtrlAll)},
			agree.Config{N: n, Protocol: agree.ProtocolEarlyStop, Faults: agree.CoordinatorCrashes(1)},
			agree.Config{N: n, Protocol: agree.ProtocolFloodSet, T: n - 1},
			agree.Config{N: n, Engine: agree.EngineLockstep, Faults: agree.ScriptedFaults(
				map[int]agree.CrashPlan{1: {Round: 1, DeliverAllData: true, CtrlPrefix: agree.CtrlAll}})},
			agree.Config{N: n, Faults: agree.RandomFaults(int64(n), 0.2, n-1)},
			agree.Config{N: n, SimulateOnClassic: true},
		)
	}
	return configs
}

// diffItems describes the first difference between two sweep items of the
// same configuration, or returns "".
func diffItems(a, b agree.SweepItem) string {
	if (a.Err == nil) != (b.Err == nil) {
		return fmt.Sprintf("err %v vs %v", a.Err, b.Err)
	}
	if a.Err != nil && a.Err.Error() != b.Err.Error() {
		return fmt.Sprintf("err %q vs %q", a.Err, b.Err)
	}
	if (a.Report == nil) != (b.Report == nil) {
		return "report presence differs"
	}
	if a.Report == nil {
		return ""
	}
	ra, rb := a.Report, b.Report
	if ra.Rounds != rb.Rounds || ra.MacroRounds != rb.MacroRounds {
		return fmt.Sprintf("rounds %d/%d vs %d/%d", ra.Rounds, ra.MacroRounds, rb.Rounds, rb.MacroRounds)
	}
	if len(ra.Decisions) != len(rb.Decisions) {
		return "decision counts differ"
	}
	for id, v := range ra.Decisions {
		if rb.Decisions[id] != v || rb.DecideRound[id] != ra.DecideRound[id] {
			return fmt.Sprintf("p%d decision differs", id)
		}
	}
	if len(ra.Crashed) != len(rb.Crashed) {
		return "crash counts differ"
	}
	for id, r := range ra.Crashed {
		if rb.Crashed[id] != r {
			return fmt.Sprintf("p%d crash round differs", id)
		}
	}
	if ra.Counters != rb.Counters {
		return fmt.Sprintf("counters %s vs %s", ra.Counters.String(), rb.Counters.String())
	}
	if (ra.ConsensusErr == nil) != (rb.ConsensusErr == nil) {
		return "consensus verdict differs"
	}
	if ra.Transcript != rb.Transcript || ra.Diagram != rb.Diagram {
		return "transcript/diagram differs"
	}
	return ""
}

// TestSweepDifferentialAcrossWorkers proves the acceptance criterion: a
// parallel sweep at W ∈ {2, 4, 8} returns per-config reports identical to
// the sequential path (W = 1), in the same order, with the same aggregate.
// scripts/verify.sh runs this under -race.
func TestSweepDifferentialAcrossWorkers(t *testing.T) {
	configs := mixedSweepBatch()
	want := agree.Sweep(configs, agree.SweepOptions{Workers: 1})
	if want.Aggregate.Errored != 0 {
		for _, item := range want.Items {
			if item.Err != nil {
				t.Fatalf("sequential baseline errored: %v", item.Err)
			}
		}
	}
	for _, w := range []int{2, 4, 8} {
		got := agree.Sweep(configs, agree.SweepOptions{Workers: w})
		if len(got.Items) != len(want.Items) {
			t.Fatalf("W=%d: %d items, want %d", w, len(got.Items), len(want.Items))
		}
		for i := range want.Items {
			if d := diffItems(want.Items[i], got.Items[i]); d != "" {
				t.Errorf("W=%d config %d: %s", w, i, d)
			}
		}
		if got.Aggregate.Configs != want.Aggregate.Configs ||
			got.Aggregate.Errored != want.Aggregate.Errored ||
			got.Aggregate.Violations != want.Aggregate.Violations ||
			got.Aggregate.Counters != want.Aggregate.Counters {
			t.Errorf("W=%d: aggregate %+v, want %+v", w, got.Aggregate, want.Aggregate)
		}
		for k, v := range want.Aggregate.RoundHistogram {
			if got.Aggregate.RoundHistogram[k] != v {
				t.Errorf("W=%d: histogram[%d] = %d, want %d", w, k, got.Aggregate.RoundHistogram[k], v)
			}
		}
	}
}

// TestSweepMatchesRun proves a sweep item equals the corresponding
// single-shot agree.Run (Run IS a one-element sweep, but this pins the
// batched path with engine reuse against the one-shot path).
func TestSweepMatchesRun(t *testing.T) {
	configs := mixedSweepBatch()
	sr := agree.Sweep(configs, agree.SweepOptions{})
	for i, cfg := range configs {
		rep, err := agree.Run(cfg)
		single := agree.SweepItem{Config: cfg, Report: rep, Err: err}
		if d := diffItems(single, sr.Items[i]); d != "" {
			t.Errorf("config %d: sweep differs from Run: %s", i, d)
		}
	}
}

// shuffledModelBatch builds every fault kind at n = 3, 5, 8 and 13 on every
// engine, the timed one under every latency kind (the zero spec, fixed, a LAN
// profile, in-bound and out-of-bound jitter), rotating through the
// protocols and two bit widths, and shuffles the lot, so that consecutive
// jobs of a sweep worker change fault kind, latency kind and size at once.
// The order-sensitive specs (RandomFaults, OmissionFaults) stay off the
// lockstep engine, whose consultation order follows its scheduling.
func shuffledModelBatch(t *testing.T) []agree.Config {
	t.Helper()
	replay := func(script string) agree.FaultSpec {
		spec, err := agree.ReplayFaults(script)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	faults := func(n int) []agree.FaultSpec {
		return []agree.FaultSpec{
			agree.NoFaults(),
			agree.CoordinatorCrashes(n / 2),
			agree.CoordinatorCrashesDelivering(1, agree.CtrlAll),
			agree.RandomFaults(int64(n), 0.4, n-1),
			agree.ScriptedFaults(map[int]agree.CrashPlan{
				2: {Round: 1, DataMask: []bool{true}},
				3: {Round: 2, DeliverAllData: true, CtrlPrefix: 1},
			}),
			agree.OmissionFaults(int64(n), 0.3, 0.2, 2),
			replay("p1@r1:so:01/;p1@r2:ro:10"),
			replay("p1@r1:so:" + strings.Repeat("0", n) + "/" + strings.Repeat("0", n) + ";p3@r2:/0"),
			replay("p1@r1:10/0"),
			replay("p2@r1:so:1/0;p3@r2:ro:01"),
		}
	}
	latencies := []agree.LatencySpec{
		{},
		agree.FixedLatency(1, 0.1),
		agree.ProfileLatency("1g"),
		agree.JitterLatency(5, 1, 0.1, 0.1, 0.8),
		agree.JitterLatency(5, 1, 0.1, 0.5, 0.9),
	}
	protocols := []agree.Protocol{agree.ProtocolCRW, agree.ProtocolEarlyStop, agree.ProtocolFloodSet}
	var configs []agree.Config
	add := func(cfg agree.Config) {
		k := len(configs)
		cfg.Protocol, cfg.Bits = protocols[k%len(protocols)], 32*(k%2)
		configs = append(configs, cfg)
	}
	for _, n := range []int{3, 5, 8, 13} {
		for i, f := range faults(n) {
			orderSensitive := i == 3 || i == 5
			add(agree.Config{N: n, Faults: f})
			if !orderSensitive {
				add(agree.Config{N: n, Engine: agree.EngineLockstep, Faults: f})
			}
			for _, l := range latencies {
				add(agree.Config{N: n, Engine: agree.EngineTimed, Faults: f, Latency: l})
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(configs), func(i, j int) { configs[i], configs[j] = configs[j], configs[i] })
	return configs
}

// TestSweepMatchesRunShuffled holds a sweep worker's reused storage to fresh
// storage: every item of a sweep over shuffledModelBatch, on 1 and 2
// workers, must equal a one-shot agree.Run of its config byte for byte in
// the report's JSON form (outcome maps, counters, ledger, simulated time,
// verdict) and in its error. A worker that leaked one job's adversary or
// latency model into the next (a crash budget not rewound, a previous
// kind's model), or an item written to another config's slot, fails it.
// scripts/verify.sh runs this under -race.
func TestSweepMatchesRunShuffled(t *testing.T) {
	configs := shuffledModelBatch(t)
	render := func(rep *agree.Report, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		b, jerr := json.Marshal(rep)
		if jerr != nil {
			t.Fatal(jerr)
		}
		return string(b)
	}
	want := make([]string, len(configs))
	for i, cfg := range configs {
		want[i] = render(agree.Run(cfg))
	}
	for _, workers := range []int{1, 2} {
		sr := agree.Sweep(configs, agree.SweepOptions{Workers: workers})
		for i, item := range sr.Items {
			if got := render(item.Report, item.Err); got != want[i] {
				t.Errorf("W=%d config %d (n=%d %s on %s, faults %+v, latency %+v):\nsweep %s\nrun   %s",
					workers, i, configs[i].N, configs[i].Protocol, configs[i].Engine,
					configs[i].Faults, configs[i].Latency, got, want[i])
			}
		}
	}
}

// TestSweepReusedSystemsMatchRun runs every protocol variant through sizes
// that grow and shrink (n = 8, 64, 8, 32, 64, 16), cross-checked on every
// engine, on 1, 2 and 4 workers: each worker resets its systems from config
// to config, and every item must equal what a one-shot Run, building on
// fresh storage, reports. scripts/verify.sh runs this under -race.
func TestSweepReusedSystemsMatchRun(t *testing.T) {
	var configs []agree.Config
	for _, n := range []int{8, 64, 8, 32, 64, 16} {
		f := n / 8
		configs = append(configs,
			agree.Config{N: n, Faults: agree.CoordinatorCrashes(f)},
			agree.Config{N: n, Faults: agree.CoordinatorCrashesDelivering(f, 2)},
			agree.Config{N: n, Protocol: agree.ProtocolEarlyStop, T: 2 * f, Faults: agree.CoordinatorCrashes(f)},
			agree.Config{N: n, Protocol: agree.ProtocolFloodSet, T: f + 1, Faults: agree.CoordinatorCrashes(f)},
			agree.Config{N: n, Engine: agree.EngineLockstep, Faults: agree.CoordinatorCrashes(f)},
			agree.Config{N: n, SimulateOnClassic: true, Faults: agree.CoordinatorCrashes(1)},
		)
	}
	want := make([]agree.SweepItem, len(configs))
	for i, cfg := range configs {
		rep, err := agree.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		want[i] = agree.SweepItem{Config: cfg, Report: rep}
	}
	for _, w := range []int{1, 2, 4} {
		sr := agree.Sweep(configs, agree.SweepOptions{Workers: w, CrossCheck: true})
		for i := range configs {
			if d := diffItems(want[i], sr.Items[i]); d != "" {
				t.Errorf("W=%d config %d (n=%d %s): sweep differs from Run: %s", w, i, configs[i].N, configs[i].Protocol, d)
			}
			if len(sr.Items[i].CrossChecked) == 0 {
				t.Errorf("W=%d config %d: not cross-checked", w, i)
			}
		}
	}
}

// TestSweepAllocsPerConfig pins the engine- and system-reuse dividend:
// amortized per-config allocations inside a sweep must undercut a standalone
// agree.Run of the same configuration, which pays engine and system
// construction every call.
func TestSweepAllocsPerConfig(t *testing.T) {
	cfg := agree.Config{N: 16, Faults: agree.CoordinatorCrashes(3)}
	const batch = 64
	configs := make([]agree.Config, batch)
	for i := range configs {
		configs[i] = cfg
	}
	runAllocs := testing.AllocsPerRun(20, func() {
		if _, err := agree.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	sweepAllocs := testing.AllocsPerRun(5, func() {
		sr := agree.Sweep(configs, agree.SweepOptions{Workers: 1})
		if sr.Aggregate.Errored != 0 {
			t.Fatal("sweep errored")
		}
	}) / batch
	if sweepAllocs >= runAllocs {
		t.Errorf("sweep allocates %.1f allocs/config, want < %.1f (standalone Run)", sweepAllocs, runAllocs)
	}
	// Absolute regression pin for the batched path (report assembly; the
	// engine, the system and the adversary are reused), with small headroom
	// over the measured value.
	const maxPerConfig = 11.5 // measured 11.36, 11.38 under -race
	if sweepAllocs > maxPerConfig {
		t.Errorf("sweep allocates %.2f allocs/config, want <= %v", sweepAllocs, maxPerConfig)
	}
}

// TestSweepAllocsPerConfigLockstep pins the reuse of the lockstep runtime
// and the timed engine across sizes: the list alternates n, as agreeperf's
// config list does, so an engine that rebuilt its state whenever n changes
// (its shard goroutines, or the kernel state of every process) fails its pin.
// Sweep dispatches the n=64 jobs first, so each engine grows once, to that
// size: lockstep's mail, outbox and index slabs, the timed engine's kernel
// state and inbox seed.
func TestSweepAllocsPerConfigLockstep(t *testing.T) {
	for _, tc := range []struct {
		engine       agree.EngineKind
		maxPerConfig float64
	}{
		{agree.EngineLockstep, 11}, // measured 10.90, 10.95 under -race
		{agree.EngineTimed, 12.5},  // measured 12.40, 12.45 under -race
	} {
		t.Run(string(tc.engine), func(t *testing.T) {
			var configs []agree.Config
			for rep := 0; rep < 4; rep++ {
				for _, n := range []int{8, 64, 8, 32, 16} {
					configs = append(configs, agree.Config{N: n, Engine: tc.engine,
						Faults: agree.CoordinatorCrashes(n / 8)})
				}
			}
			perConfig := testing.AllocsPerRun(5, func() {
				if sr := agree.Sweep(configs, agree.SweepOptions{Workers: 1}); sr.Aggregate.Errored != 0 {
					t.Fatal("sweep errored")
				}
			}) / float64(len(configs))
			if perConfig > tc.maxPerConfig {
				t.Errorf("%s sweep allocates %.2f allocs/config, want <= %v", tc.engine, perConfig, tc.maxPerConfig)
			}
		})
	}
}

// TestSweepAllocsPerConfigFloodSet pins the classic FloodSet baseline in a
// sweep: its known sets and fresh-value logs are carved from one slab the
// worker's system reuses and its plan arrays from another, and each round
// sends its fresh window in place through the process's own payload slot,
// and the kernel grows every inbox at once, so nine flooding rounds (n=16,
// t=8) stay under 10.5 allocations per config.
func TestSweepAllocsPerConfigFloodSet(t *testing.T) {
	cfg := agree.Config{N: 16, T: 8, Protocol: agree.ProtocolFloodSet}
	const batch = 64
	configs := make([]agree.Config, batch)
	for i := range configs {
		configs[i] = cfg
	}
	perConfig := testing.AllocsPerRun(5, func() {
		sr := agree.Sweep(configs, agree.SweepOptions{Workers: 1})
		if sr.Aggregate.Errored != 0 || sr.Aggregate.Violations != 0 {
			t.Fatal("floodset sweep errored or violated consensus")
		}
	}) / batch
	const maxPerConfig = 10.5 // measured 10.38, 10.39 under -race
	if perConfig > maxPerConfig {
		t.Errorf("floodset sweep allocates %.2f allocs/config, want <= %v", perConfig, maxPerConfig)
	}
}

// TestSweepCrossCheck exercises the CrossCheck mode: order-insensitive
// configurations are validated on every other registered engine, while
// order-sensitive (random) fault specs are skipped.
func TestSweepCrossCheck(t *testing.T) {
	configs := []agree.Config{
		{N: 5, Faults: agree.CoordinatorCrashes(2)},
		{N: 5, Protocol: agree.ProtocolEarlyStop, Faults: agree.CoordinatorCrashes(1)},
		{N: 5, Protocol: agree.ProtocolFloodSet},
		{N: 5, Engine: agree.EngineLockstep, Faults: agree.CoordinatorCrashes(1)},
		{N: 5, Faults: agree.RandomFaults(3, 0.3, 4)},
	}
	sr := agree.Sweep(configs, agree.SweepOptions{Workers: 2, CrossCheck: true})
	for i, item := range sr.Items {
		if item.Err != nil {
			t.Fatalf("config %d: %v", i, item.Err)
		}
	}
	for i := 0; i < 3; i++ {
		xc := sr.Items[i].CrossChecked
		if len(xc) != 2 || xc[0] != agree.EngineLockstep || xc[1] != agree.EngineTimed {
			t.Errorf("config %d: cross-checked on %v, want [lockstep timed]", i, xc)
		}
	}
	xc := sr.Items[3].CrossChecked
	if len(xc) != 2 || xc[0] != agree.EngineDeterministic || xc[1] != agree.EngineTimed {
		t.Errorf("lockstep config: cross-checked on %v, want [deterministic timed]", xc)
	}
	if len(sr.Items[4].CrossChecked) != 0 {
		t.Errorf("random config: cross-checked on %v, want none (order-sensitive)", sr.Items[4].CrossChecked)
	}
	if sr.Aggregate.CrossChecked != 4 {
		t.Errorf("aggregate cross-checked = %d, want 4", sr.Aggregate.CrossChecked)
	}
}

// TestSweepCapabilityError pins the satellite fix: requesting a diagram on
// an engine without trace support must blame the diagram (the capability
// the user asked for), not claim "tracing requires the deterministic
// engine".
func TestSweepCapabilityError(t *testing.T) {
	_, err := agree.Run(agree.Config{N: 4, Diagram: true, Engine: agree.EngineLockstep})
	if err == nil {
		t.Fatal("diagram accepted on lockstep engine")
	}
	if !strings.Contains(err.Error(), "Diagram") || !strings.Contains(err.Error(), "lockstep") {
		t.Errorf("diagram error does not name the unsupported capability and engine: %v", err)
	}
	_, err = agree.Run(agree.Config{N: 4, Trace: true, Engine: agree.EngineLockstep})
	if err == nil {
		t.Fatal("trace accepted on lockstep engine")
	}
	if !strings.Contains(err.Error(), "Trace") || !strings.Contains(err.Error(), "lockstep") {
		t.Errorf("trace error does not name the unsupported capability and engine: %v", err)
	}
}

// TestSweepIsolatesConfigErrors proves one bad configuration does not
// poison the batch.
func TestSweepIsolatesConfigErrors(t *testing.T) {
	configs := []agree.Config{
		{N: 4},
		{N: 0},
		{N: 4, Protocol: "bogus"},
		{N: 4, Engine: "bogus"},
		{N: 4, Faults: agree.CoordinatorCrashes(1)},
	}
	sr := agree.Sweep(configs, agree.SweepOptions{Workers: 3})
	if sr.Items[0].Err != nil || sr.Items[4].Err != nil {
		t.Errorf("valid configs errored: %v, %v", sr.Items[0].Err, sr.Items[4].Err)
	}
	for _, i := range []int{1, 2, 3} {
		if sr.Items[i].Err == nil {
			t.Errorf("config %d: invalid config accepted", i)
		}
		if sr.Items[i].Report != nil {
			t.Errorf("config %d: report returned alongside error", i)
		}
	}
	if sr.Aggregate.Errored != 3 {
		t.Errorf("aggregate errored = %d, want 3", sr.Aggregate.Errored)
	}
}

// TestSweepAggregate checks the aggregate against a by-hand fold of the
// items.
func TestSweepAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var configs []agree.Config
	for i := 0; i < 20; i++ {
		n := rng.Intn(10) + 3
		configs = append(configs, agree.Config{N: n, Faults: agree.CoordinatorCrashes(rng.Intn(n))})
	}
	sr := agree.Sweep(configs, agree.SweepOptions{Workers: 4})
	wantHist := map[int]int{}
	var wantMsgs int
	for i, item := range sr.Items {
		if item.Err != nil {
			t.Fatalf("config %d: %v", i, item.Err)
		}
		wantHist[item.Report.MaxDecideRound()]++
		wantMsgs += item.Report.Counters.TotalMsgs()
	}
	if sr.Aggregate.Configs != 20 || sr.Aggregate.Violations != 0 {
		t.Errorf("aggregate = %+v, want 20 configs, 0 violations", sr.Aggregate)
	}
	if got := sr.Aggregate.Counters.TotalMsgs(); got != wantMsgs {
		t.Errorf("aggregate messages = %d, want %d", got, wantMsgs)
	}
	for k, v := range wantHist {
		if sr.Aggregate.RoundHistogram[k] != v {
			t.Errorf("histogram[%d] = %d, want %d", k, sr.Aggregate.RoundHistogram[k], v)
		}
	}
	if len(sr.Aggregate.RoundHistogram) != len(wantHist) {
		t.Errorf("histogram has %d keys, want %d", len(sr.Aggregate.RoundHistogram), len(wantHist))
	}
}
