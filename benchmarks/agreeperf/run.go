package main

// run.go executes one workload in this process, untraced (end-to-end
// metrics) or traced (per-layer metrics), and returns everything it learned.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/agree"
	"repro/internal/harness"
)

// runOpts configures one workload run.
type runOpts struct {
	Root     string // checkout root: scenarios/ and cmd/ live here
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Smoke    bool
	NoCmd    bool      // traced runs: skip the probes that build and run cmd binaries
	Self     string    // the benchmark's binary, started afresh to time set-up
	Start    time.Time // without Self: set-up is timed once, in process, from here
}

// detail is the full record of one workload run.
type detail struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	NoCmd     bool               `json:"no_cmd,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Batches   int                `json:"batches"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]summary `json:"per_layer,omitempty"`
	Series    map[string][]point `json:"series,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// unitOf returns the declared unit of a metric.
func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, hostTime, simEndToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// procsFor is the GOMAXPROCS a workload runs with, set-up and traced run
// included: min(nproc, 2), the load being generated in-process with no more
// goroutines of the benchmark's own than that — except sweep_lockstep, which
// gets one. With two, the lockstep engine's goroutines wake each other across
// the two virtual CPUs at every barrier, and what such a wake costs depends on
// where the host has placed them, which changes over minutes: two ten-seed
// sets taken back to back read setup_s 0.145 s and 0.113 s and ops_per_s
// 1846 and 2247 (spread 0.27 and 0.02). setup_s is a metric the driver holds
// to its bound on every workload, and it could not hold it there. What the
// second P costs stays on the books as the per-layer lockstep.procs2_ratio.
func procsFor(workload string) int {
	if workload == wlSweepLockstep {
		return 1
	}
	return min(runtime.NumCPU(), 2)
}

// runWorkload dispatches on the trace flag.
func runWorkload(o runOpts) (*detail, error) {
	runtime.GOMAXPROCS(procsFor(o.Workload))
	if o.Trace {
		return runTraced(o)
	}
	return runUntraced(o)
}

// seal folds a workload's end-of-run outcome into the detail.
func (d *detail) seal(m *measurement, out *outcome) {
	d.Attempted, d.Batches = m.Ops, len(m.samples)
	d.Failed = m.Failed + out.Failed
	d.Correct = d.Failed == 0
	d.Digests, d.Notes = out.Digests, out.Notes
}

// runUntraced measures the end-to-end metrics: set-up, the timed batches, the
// end-of-run checks, and then set-up again in fresh processes for setup_s.
func runUntraced(o runOpts) (*detail, error) {
	w, err := setUp(o.Root, o.Workload, o.Seed, o.Smoke)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(o.Start).Seconds()}
	m := measure(w, nil, "", o.Seconds)
	out, err := w.finish()
	if err != nil {
		return nil, err
	}
	if o.Self != "" && !o.Smoke {
		if setups, err = timeSetUps(o); err != nil {
			return nil, err
		}
	}
	d := &detail{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds}
	d.seal(m, out)
	ops, cpu := m.repetitions()
	d.EndToEnd = map[string]summary{
		"setup_s":        summarize("s", setups),
		"ops_per_s":      summarize("1/s", ops),
		"cpu_ms_per_kop": summarize("ms", cpu),
		"allocs_per_op":  single("count", m.AllocsOp),
		"bytes_per_op":   single("B", m.BytesOp),
	}
	for name, v := range out.Sim {
		d.EndToEnd[name] = single(unitOf(name), v)
	}
	return d, nil
}

// runTraced derives the per-layer metrics of the layers the workload
// exercises. It sets up once, runs a quarter of the time untraced and an
// eighth with a span around every batch (their ratio is what the benchmark's
// own spans cost), then walks the workload's ladder and runs its probes.
func runTraced(o runOpts) (*detail, error) {
	w, err := setUp(o.Root, o.Workload, o.Seed, o.Smoke)
	if err != nil {
		return nil, err
	}
	plain := measure(w, nil, "", o.Seconds/4)
	tr := newTracer()
	spanName := map[string]string{wlFuzz: "agree.fuzz", wlServe: "agree.serve"}[o.Workload]
	if spanName == "" {
		spanName = "agree.sweep"
	}
	traced := measure(w, tr, spanName, o.Seconds/8)
	out, err := w.finish()
	if err != nil {
		return nil, err
	}
	d := &detail{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Traced: true, NoCmd: o.NoCmd}
	plain.Failed += traced.Failed
	d.seal(plain, out)

	l := &ledger{root: o.Root, seed: o.Seed, smoke: o.Smoke, noCmd: o.NoCmd, tr: tr,
		out: map[string]float64{}, series: map[string][]point{}}
	l.out["agreeperf.trace_overhead_ratio"] = traced.fastOpsPerS() / plain.fastOpsPerS()
	l.out["agreeperf.fast_ops_per_s"] = plain.fastOpsPerS()
	// BENCHMARK.json lists the host-time end-to-end metrics with the layers;
	// here they come from the untraced phase.
	ops, cpu := plain.repetitions()
	l.out["ops_per_s"], l.out["cpu_ms_per_kop"] = median(ops), median(cpu)
	l.out["agree.batch_p50_ms"] = median(plain.batchMs())
	l.out["agree.batch_p99_ms"] = percentile(plain.batchMs(), 99)
	// Simulated values do not depend on tracing: the run reports its own.
	for _, m := range []map[string]float64{out.Sim, out.Layer} {
		for name, v := range m {
			l.out[name] = v
		}
	}
	if err := l.probe(w, o.Seconds/8); err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	d.PerLayer = map[string]summary{}
	for name, v := range l.out {
		d.PerLayer[name] = single(unitOf(name), v)
	}
	d.Series = l.series
	// One span file per workload; a later run of the workload replaces it.
	if d.TraceFile, err = tr.write(filepath.Join(o.Root, ".bench_build", "traces"), o.Workload+".trace.json"); err != nil {
		return nil, err
	}
	return d, nil
}

// probe fills the per-layer ledger with the layers the workload exercises:
// its ladder, the raw engine below it, and the command-line tools that run
// the same kind of work. ladderSeconds bounds the ladder.
func (l *ledger) probe(w runner, ladderSeconds float64) error {
	var steps []func() error
	switch w := w.(type) {
	case *sweepRunner:
		kind := harness.Kind(w.engine)
		steps = []func() error{
			func() error { return l.probeSweepLadder(w, ladderSeconds) },
			func() error { return l.probeRawEngine(kind) },
			func() error { return l.probeScale(kind) },
		}
		switch w.engine {
		case agree.EngineTimed:
			steps = append(steps, func() error { return l.probeTelemetrySweep(w) })
		case agree.EngineLockstep:
			steps = append(steps, l.probeLockstepProcs)
		case agree.EngineDeterministic:
			// The first workload also prices what every set-up pays for the
			// catalog, and the tools behind the sweeps.
			steps = append(steps, l.probeScenario, func() error {
				return l.probeCmds("./cmd/...", "cmd.build_s", []cmdProbe{
					{metric: "cmd.agreerun_ms", unit: time.Millisecond, execs: 20, bin: "agreerun",
						args: []string{"-n", "32", "-f", "4"}},
					{metric: "cmd.agreesim_all_ms", unit: time.Millisecond, execs: 20, bin: "agreesim",
						args: []string{"-run", "all", "-dir", filepath.Join(l.root, "scenarios")}},
				})
			})
		}
	case *fuzzRunner:
		seeds := "100000"
		if l.smoke {
			seeds = "1000"
		}
		steps = []func() error{
			func() error { return l.probeFuzzLadder(w.base, ladderSeconds) },
			l.probePool,
			func() error {
				return l.probeCmds("./cmd/agreefuzz", "", []cmdProbe{
					{metric: "cmd.agreefuzz_100k_s", unit: time.Second, execs: 3, bin: "agreefuzz",
						args: []string{"-n", "16", "-t", "5", "-laws", "-seeds", seeds}},
				})
			},
		}
	case *serveRunner:
		steps = []func() error{
			func() error { return l.probeServe(w) },
			func() error {
				return l.probeCmds("./cmd/agreeserve", "", []cmdProbe{
					{metric: "cmd.agreeserve_ms", unit: time.Millisecond, execs: 10, bin: "agreeserve",
						args: []string{"-n", "8", "-workload", "poisson", "-rate", "200000", "-batch", "32",
							"-lat-profile", "1g", "-crash", fmt.Sprintf("1@%g", serveCrashAt),
							"-max-commands", fmt.Sprint(serveCmds)}},
				})
			},
		}
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
