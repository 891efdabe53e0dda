package main

// metrics.go declares every workload and metric name the benchmark emits.
// BENCHMARK.json at the repository root mirrors these tables; the self-test
// TestNamesMatchBenchmarkJSON fails when the two drift apart.

import "slices"

// The five workloads. Each runs in a fresh process.
const (
	wlSweepDet      = "sweep_det"
	wlSweepTimed    = "sweep_timed"
	wlSweepLockstep = "sweep_lockstep"
	wlFuzz          = "fuzz_campaign"
	wlServe         = "serve_crash"
)

var workloadNames = []string{wlSweepDet, wlSweepTimed, wlSweepLockstep, wlFuzz, wlServe}

// metricDef describes one metric: its unit, which direction is better, the
// relative worsening that counts as a regression (end-to-end metrics only)
// and the workloads whose run emits it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	On     []string // workloads that emit the metric; nil: every workload
}

// emittedBy says whether a run of the workload must emit the metric.
func (m metricDef) emittedBy(workload string) bool {
	return m.On == nil || slices.Contains(m.On, workload)
}

var (
	sweeps        = []string{wlSweepDet, wlSweepTimed, wlSweepLockstep}
	onDet         = []string{wlSweepDet}
	onTimed       = []string{wlSweepTimed}
	onLock        = []string{wlSweepLockstep}
	onFuzz        = []string{wlFuzz}
	onServe       = []string{wlServe}
	sweepsAndFuzz = []string{wlSweepDet, wlSweepTimed, wlSweepLockstep, wlFuzz}
	onDES         = []string{wlSweepTimed, wlServe}
)

// endToEnd are the end-to-end metrics with a bound the driver enforces: the
// end_to_end list of BENCHMARK.json, reported by every workload from its
// untraced run. The bounds are the ones ISSUE 11 fixed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "bytes_per_op", Unit: "B", Better: "lower", Bound: 0.01},
}

// hostTime are the host-time end-to-end metrics of the measured phase: all
// its operations over all its timed wall seconds, and the CPU time they cost.
// The suite prints them with the end-to-end table and -compare judges them
// against ISSUE 11's bound of 0.10. On the hosts the benchmark runs on they
// cannot hold that bound run to run (README, "Baseline and measured spread":
// ten-seed spreads of 0.02 to 0.20, and the same binary a quarter faster
// twelve minutes later), and the issue's rule for a metric that cannot meet
// its bound is demotion, not a wider bound: in BENCHMARK.json they are listed
// with the per-layer metrics, and a traced run reports them from its untraced
// phase. Claims on them are made with alternating pairs (choosing-metrics §8).
var hostTime = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "cpu_ms_per_kop", Unit: "ms", Better: "lower", Bound: 0.10},
}

// simEndToEnd are the simulated-time end-to-end metrics. They come from the
// untraced run, the suite prints them with the end-to-end table, and their
// bound is 0: for one seed they repeat exactly, so any change is a semantic
// change (-compare judges them so). The driver measures the run-to-run spread
// over ten different seeds, which generate different inputs, so no simulated
// metric can hold a bound of 0 there; in BENCHMARK.json they are therefore
// listed with the per-layer metrics, which have no bound, and a traced run
// reports its own workload's values.
var simEndToEnd = []metricDef{
	{Name: "sim_rounds_per_op", Unit: "rounds", Better: "lower"},
	{Name: "sim_msgs_per_op", Unit: "msgs", Better: "lower", On: sweeps},
	{Name: "sim_bits_per_op", Unit: "bits", Better: "lower", On: sweeps},
	{Name: "sim_decide_time_per_op", Unit: "simtime", Better: "lower", On: onTimed},
	{Name: "sim_commit_p50_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "sim_commit_p99_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "sim_recovery_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "sim_max_rate_kcps", Unit: "kcmd/s", Better: "higher", On: onServe},
}

// perLayer are the metrics of single layers, measured in the traced run of
// the workloads that exercise the layer (On). benchmarks/README.md says which
// end-to-end metric on which workload each one should move, and on which it
// should not.
var perLayer = []metricDef{
	layer("des.events_per_op", "count", "lower", onTimed),
	layer("des.heap_max", "count", "lower", onTimed),
	layer("des.pool_hit_rate", "ratio", "higher", onTimed),
	layer("des.event_ns", "ns", "lower", onTimed),
	layer("sim.run_ns", "ns", "lower", onDet),
	layer("sim.msg_ns", "ns", "lower", onDet),
	layer("sim.allocs_per_run", "count", "lower", onDet),
	layer("sim.scale_exp", "exp", "lower", onDet),
	layer("timed.run_ns", "ns", "lower", onTimed),
	layer("timed.event_ns", "ns", "lower", onTimed),
	layer("timed.allocs_per_run", "count", "lower", onTimed),
	layer("timed.scale_exp", "exp", "lower", onTimed),
	layer("lockstep.run_ns", "ns", "lower", onLock),
	layer("lockstep.round_ns", "ns", "lower", onLock),
	layer("lockstep.build_ms", "ms", "lower", onLock),
	layer("lockstep.allocs_per_run", "count", "lower", onLock),
	layer("lockstep.scale_exp", "exp", "lower", onLock),
	layer("lockstep.procs2_ratio", "ratio", "lower", onLock),
	layer("core.build_ns", "ns", "lower", sweepsAndFuzz),
	layer("laws.audit_ns", "ns", "lower", sweeps),
	layer("check.consensus_ns", "ns", "lower", sweeps),
	layer("harness.run_ns", "ns", "lower", sweepsAndFuzz),
	layer("harness.self_ns", "ns", "lower", sweeps),
	layer("harness.reuse_ratio", "ratio", "higher", sweeps),
	layer("harness.pool_speedup", "ratio", "higher", onFuzz),
	layer("harness.queue_wait_share", "ratio", "lower", onFuzz),
	layer("agree.run_ns", "ns", "lower", sweeps),
	layer("agree.sweep_cfg_ns", "ns", "lower", sweeps),
	layer("agree.self_ns", "ns", "lower", sweeps),
	layer("agree.batch_p50_ms", "ms", "lower", nil),
	layer("agree.batch_p99_ms", "ms", "lower", nil),
	layer("agree.report_json_ns", "ns", "lower", sweeps),
	layer("fuzz.seed_ns", "ns", "lower", onFuzz),
	layer("fuzz.gen_self_ns", "ns", "lower", onFuzz),
	layer("fuzz.oracle_ns", "ns", "lower", onFuzz),
	layer("fuzz.execs_per_seed", "ratio", "lower", onFuzz),
	layer("fuzz.shrink_runs_per_finding", "count", "lower", onFuzz),
	layer("fuzz.findings", "count", "higher", onFuzz),
	layer("scenario.parse_us", "us", "lower", onDet),
	layer("scenario.catalog_replay_ms", "ms", "lower", onDet),
	layer("workload.arrival_ns", "ns", "lower", onServe),
	layer("smr.serve_slot_us", "us", "lower", onServe),
	layer("agree.serve_self_ms", "ms", "lower", onServe),
	layer("smr.cmds_per_slot", "count", "higher", onServe),
	layer("smr.rounds_per_slot", "rounds", "lower", onServe),
	layer("smr.msgs_per_cmd", "msgs", "lower", onServe),
	layer("smr.bits_per_cmd", "bits", "lower", onServe),
	layer("smr.sim_queue_wait_us", "us", "lower", onServe),
	layer("smr.engine_reuse_ratio", "ratio", "higher", onServe),
	layer("telemetry.on_overhead_ratio", "ratio", "lower", onDES),
	layer("telemetry.spans_per_op", "count", "lower", onDES),
	layer("telemetry.export_ms", "ms", "lower", onDES),
	layer("cmd.agreerun_ms", "ms", "lower", onDet),
	layer("cmd.agreesim_all_ms", "ms", "lower", onDet),
	layer("cmd.agreefuzz_100k_s", "s", "lower", onFuzz),
	layer("cmd.agreeserve_ms", "ms", "lower", onServe),
	layer("cmd.build_s", "s", "lower", onDet),
	layer("agreeperf.trace_overhead_ratio", "ratio", "higher", nil),
	layer("agreeperf.fast_ops_per_s", "1/s", "higher", nil),
}

func layer(name, unit, better string, on []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, On: on}
}

// driverPerLayer is the per_layer list of BENCHMARK.json: the layer metrics
// plus the end-to-end metrics the driver cannot hold to a bound.
func driverPerLayer() []metricDef {
	return slices.Concat(perLayer, hostTime, simEndToEnd)
}
