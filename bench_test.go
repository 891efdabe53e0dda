// Package repro's root benchmarks time the workload behind each experiment
// table E1–E14 (see DESIGN.md for the experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports, alongside ns/op, a domain metric via
// b.ReportMetric (rounds, messages, executions) so benchmark output doubles
// as a compact reproduction record.
package repro

import (
	"errors"
	"fmt"
	"testing"

	"repro/agree"
	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/consensus/mr99"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ffd"
	"repro/internal/lockstep"
	"repro/internal/sim"
	"repro/internal/simulate"
	"repro/internal/smr"
	"repro/internal/snapshot"

	"repro/internal/async"
)

// run executes one agree.Run and fails the benchmark on any error.
func run(b *testing.B, cfg agree.Config) *agree.Report {
	b.Helper()
	rep, err := agree.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if rep.ConsensusErr != nil {
		b.Fatal(rep.ConsensusErr)
	}
	return rep
}

// BenchmarkE1RoundsVsFaults times the Theorem 1 workload: one worst-case
// CRW execution with n=32, f=8 (decides in exactly 9 rounds).
func BenchmarkE1RoundsVsFaults(b *testing.B) {
	var rounds int
	for i := 0; i < b.N; i++ {
		rep := run(b, agree.Config{N: 32, Faults: agree.CoordinatorCrashes(8)})
		rounds = rep.MaxDecideRound()
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkE1FailureFree times the one-round happy path at n=64.
func BenchmarkE1FailureFree(b *testing.B) {
	var msgs int
	for i := 0; i < b.N; i++ {
		rep := run(b, agree.Config{N: 64})
		msgs = rep.Counters.TotalMsgs()
	}
	b.ReportMetric(float64(msgs), "msgs")
}

// BenchmarkE2BitComplexity times the Theorem 2 adversarial workload (full
// data steps, no commits, t+1 rounds) at n=32, b=64.
func BenchmarkE2BitComplexity(b *testing.B) {
	var bits int
	for i := 0; i < b.N; i++ {
		rep := run(b, agree.Config{N: 32, Bits: 64,
			Faults: agree.CoordinatorCrashesDelivering(31, 0)})
		bits = rep.Counters.TotalBits()
	}
	b.ReportMetric(float64(bits), "bits")
}

// BenchmarkE3Crossover times the Section 2.2 sweep: 2 protocols × 5 fault
// counts priced under the cost model.
func BenchmarkE3Crossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for f := 0; f < 5; f++ {
			run(b, agree.Config{N: 10, Faults: agree.CoordinatorCrashes(f)})
			run(b, agree.Config{N: 10, T: 8, Protocol: agree.ProtocolEarlyStop,
				Faults: agree.CoordinatorCrashes(f)})
		}
	}
}

// BenchmarkE3Timed times the empirical crossover workload behind the
// rewritten E3: the same 2 protocols × 5 fault counts, executed on the
// continuous-time engine under gigabit-Ethernet latencies (every message a
// timed event; completion times measured on the event clock, not priced
// analytically).
func BenchmarkE3Timed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for f := 0; f < 5; f++ {
			run(b, agree.Config{N: 10, Engine: agree.EngineTimed,
				Latency: agree.ProfileLatency("1g"), Faults: agree.CoordinatorCrashes(f)})
			run(b, agree.Config{N: 10, T: 8, Protocol: agree.ProtocolEarlyStop,
				Engine: agree.EngineTimed, Latency: agree.ProfileLatency("1g"),
				Faults: agree.CoordinatorCrashes(f)})
		}
	}
}

// BenchmarkE4EarlyStop times the classic early-stopping baseline at n=32,
// f=2 (decides in 4 rounds, Θ(n²) messages per round).
func BenchmarkE4EarlyStop(b *testing.B) {
	var msgs int
	for i := 0; i < b.N; i++ {
		rep := run(b, agree.Config{N: 32, T: 31, Protocol: agree.ProtocolEarlyStop,
			Faults: agree.CoordinatorCrashes(2)})
		msgs = rep.Counters.TotalMsgs()
	}
	b.ReportMetric(float64(msgs), "msgs")
}

// BenchmarkE4FloodSet times the FloodSet baseline at n=32, t=8 (always t+1
// rounds).
func BenchmarkE4FloodSet(b *testing.B) {
	var msgs int
	for i := 0; i < b.N; i++ {
		rep := run(b, agree.Config{N: 32, T: 8, Protocol: agree.ProtocolFloodSet})
		msgs = rep.Counters.TotalMsgs()
	}
	b.ReportMetric(float64(msgs), "msgs")
}

// BenchmarkE5Exhaustive times the full state-space exploration of n=4, t=2
// (the Theorem 4/5 tightness check: 151 executions).
func BenchmarkE5Exhaustive(b *testing.B) {
	var execs int
	for i := 0; i < b.N; i++ {
		factory := func(ch interface{ Choose(int) int }) check.Execution {
			props := []sim.Value{10, 11, 12, 13}
			return check.Execution{
				Procs:     core.NewSystem(props, core.Options{}),
				Adv:       adversary.NewFromChooser(ch, 2, 4),
				Cfg:       sim.Config{Model: sim.ModelExtended, Horizon: 6},
				Proposals: props,
			}
		}
		stats, err := check.Explore(factory,
			func(ex check.Execution, res *sim.Result, engineErr error) error {
				if engineErr != nil {
					return engineErr
				}
				if err := check.Consensus(ex.Proposals, res); err != nil {
					return err
				}
				return check.RoundBound(res, check.BoundFPlus1)
			}, check.ExploreOpts{Budget: 1_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if len(stats.Counterexamples) != 0 {
			b.Fatal("unexpected violation")
		}
		execs = stats.Executions
	}
	b.ReportMetric(float64(execs), "executions")
}

// e5BenchFactory builds the E5 workload (n=4, t=2, 151 executions) for the
// exploration benchmarks.
func e5BenchFactory(ch interface{ Choose(int) int }) check.Execution {
	props := []sim.Value{10, 11, 12, 13}
	return check.Execution{
		Procs:     core.NewSystem(props, core.Options{}),
		Adv:       adversary.NewFromChooser(ch, 2, 4),
		Cfg:       sim.Config{Model: sim.ModelExtended, Horizon: 6},
		Proposals: props,
	}
}

// e5BenchValidator validates consensus plus the f+1 bound.
func e5BenchValidator(ex check.Execution, res *sim.Result, engineErr error) error {
	if engineErr != nil {
		return engineErr
	}
	if err := check.Consensus(ex.Proposals, res); err != nil {
		return err
	}
	return check.RoundBound(res, check.BoundFPlus1)
}

// BenchmarkExploreParallel times the sharded explorer on the E5 workload
// (the speedup over BenchmarkE5Exhaustive scales with core count; on one
// core it degrades to the sequential path).
func BenchmarkExploreParallel(b *testing.B) {
	var execs int
	for i := 0; i < b.N; i++ {
		stats, err := check.ExploreParallel(e5BenchFactory, e5BenchValidator,
			check.ExploreOpts{Budget: 1_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if len(stats.Counterexamples) != 0 {
			b.Fatal("unexpected violation")
		}
		execs = stats.Executions
	}
	b.ReportMetric(float64(execs), "executions")
}

// benchProc is a minimal allocation-free process for measuring the engine's
// own hot-path cost: p1 broadcasts a preallocated data plan in round 1 and
// every process decides (and halts) in round 2.
type benchProc struct {
	id      sim.ProcID
	plan    sim.SendPlan // preallocated; empty except for p1 in round 1
	decided bool
}

func (p *benchProc) ID() sim.ProcID { return p.id }
func (p *benchProc) Send(r sim.Round) sim.SendPlan {
	if r == 1 {
		return p.plan
	}
	return sim.SendPlan{}
}
func (p *benchProc) Receive(r sim.Round, inbox []sim.Message) {
	if r == 2 {
		p.decided = true
	}
}
func (p *benchProc) Decided() (sim.Value, bool) { return 7, p.decided }
func (p *benchProc) Halted() bool               { return p.decided }

// TestEngineHappyPathAllocs pins the allocation count of the engine's
// no-trace hot path: with the engine reset between runs (as the explorer
// does) and processes that allocate nothing, a two-round broadcast run may
// only allocate the Result and its three maps. The seed engine spent
// hundreds of allocations here on map bookkeeping, eager trace strings and
// delivery masks.
func TestEngineHappyPathAllocs(t *testing.T) {
	const n = 8
	procs := make([]sim.Process, n)
	bps := make([]*benchProc, n)
	for i := range procs {
		bp := &benchProc{id: sim.ProcID(i + 1)}
		if i == 0 {
			for j := 2; j <= n; j++ {
				bp.plan.Data = append(bp.plan.Data,
					sim.Outgoing{To: sim.ProcID(j), Payload: sim.Est{V: 7, B: 64}})
			}
			bp.plan.Control = make([]sim.ProcID, 0, n-1)
			for j := n; j >= 2; j-- {
				bp.plan.Control = append(bp.plan.Control, sim.ProcID(j))
			}
		}
		bps[i] = bp
		procs[i] = bp
	}
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended, Horizon: 4}, procs, adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		for _, bp := range bps {
			bp.decided = false
		}
		if err := eng.Reset(procs, adversary.None{}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up inbox buffers
	allocs := testing.AllocsPerRun(200, run)
	// Result struct + Decisions/DecideRound/Crashed maps; allow a little
	// headroom for map bucket layout differences across Go versions.
	const maxAllocs = 12
	if allocs > maxAllocs {
		t.Errorf("engine happy path allocates %.1f allocs/run, want <= %d", allocs, maxAllocs)
	}
}

// TestE1FailureFreeAllocs pins the allocation budget of one full E1
// failure-free run (n=64, protocol allocations included): the coordinator's
// round costs a constant number of allocations, not one per destination, so
// what remains is the process slab, the result and report maps and the
// engine set-up.
func TestE1FailureFreeAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		rep, err := agree.Run(agree.Config{N: 64})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ConsensusErr != nil {
			t.Fatal(rep.ConsensusErr)
		}
	})
	const maxAllocs = 48 // measured 42 (seed: 600)
	if allocs > maxAllocs {
		t.Errorf("E1 failure-free run allocates %.1f allocs/run, want <= %d (seed: 600)", allocs, maxAllocs)
	}
}

// BenchmarkE6Simulation times the Section 2.2 extended-on-classic
// simulation at n=16 (16 micro rounds per macro round).
func BenchmarkE6Simulation(b *testing.B) {
	var micro int
	for i := 0; i < b.N; i++ {
		rep := run(b, agree.Config{N: 16, SimulateOnClassic: true})
		micro = rep.Rounds
	}
	b.ReportMetric(float64(micro), "microrounds")
}

// BenchmarkE7FastFD times the discrete-event fast-failure-detector run at
// n=10, f=4 (decides at D + 4d).
func BenchmarkE7FastFD(b *testing.B) {
	cfg := ffd.Config{N: 10, D: 1.0, Dd: 0.05}
	props := make([]sim.Value, 10)
	for i := range props {
		props[i] = sim.Value(100 + i)
	}
	var decideAt float64
	for i := 0; i < b.N; i++ {
		res, err := ffd.Run(cfg, props, ffd.KillFirstF{F: 4})
		if err != nil {
			b.Fatal(err)
		}
		decideAt = float64(res.MaxDecideTime())
	}
	b.ReportMetric(decideAt, "decide-time")
}

// BenchmarkE8BridgeMR99 times one failure-free MR99 instance at n=16 (one
// round: n-1 + n(n-1) messages).
func BenchmarkE8BridgeMR99(b *testing.B) {
	props := make([]sim.Value, 16)
	for i := range props {
		props[i] = sim.Value(100 + i)
	}
	var msgs int
	for i := 0; i < b.N; i++ {
		res, err := mr99.Run(mr99.Config{N: 16, T: 7}, props, &mr99.GSTOracle{GST: 1})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Trace[0].Step1Msgs + res.Trace[0].Step2Msgs
	}
	b.ReportMetric(float64(msgs), "msgs")
}

// BenchmarkE9Messages times the message-count comparison workload: CRW vs
// FloodSet at n=32 under 4 coordinator crashes.
func BenchmarkE9Messages(b *testing.B) {
	var crwMsgs, floodMsgs int
	for i := 0; i < b.N; i++ {
		crw := run(b, agree.Config{N: 32, Faults: agree.CoordinatorCrashesDelivering(4, 0)})
		fs := run(b, agree.Config{N: 32, T: 31, Protocol: agree.ProtocolFloodSet,
			Faults: agree.CoordinatorCrashes(4)})
		crwMsgs, floodMsgs = crw.Counters.TotalMsgs(), fs.Counters.TotalMsgs()
	}
	b.ReportMetric(float64(crwMsgs), "crw-msgs")
	b.ReportMetric(float64(floodMsgs), "flood-msgs")
}

// BenchmarkE10Ablation times the exhaustive counterexample search for the
// commit-as-data ablation (n=3, t=1).
func BenchmarkE10Ablation(b *testing.B) {
	var found int
	for i := 0; i < b.N; i++ {
		factory := func(ch interface{ Choose(int) int }) check.Execution {
			props := []sim.Value{10, 11, 12}
			return check.Execution{
				Procs:     core.NewSystem(props, core.Options{CommitAsData: true}),
				Adv:       adversary.NewFromChooser(ch, 1, 3),
				Cfg:       sim.Config{Model: sim.ModelClassic, Horizon: 5},
				Proposals: props,
			}
		}
		stats, err := check.Explore(factory,
			func(ex check.Execution, res *sim.Result, engineErr error) error {
				if engineErr != nil {
					return engineErr
				}
				return check.Consensus(ex.Proposals, res)
			}, check.ExploreOpts{Budget: 1_000_000})
		if err != nil {
			b.Fatal(err)
		}
		found = len(stats.Counterexamples)
	}
	b.ReportMetric(float64(found), "counterexamples")
}

// sweepBenchConfigs is the BenchmarkSweep workload: 64 CRW scenarios at
// n=16 cycling through worst-case fault counts f = 0..7, the shape of a
// fault-sweep campaign.
func sweepBenchConfigs() []agree.Config {
	configs := make([]agree.Config, 64)
	for i := range configs {
		configs[i] = agree.Config{N: 16, Faults: agree.CoordinatorCrashes(i % 8)}
	}
	return configs
}

// BenchmarkSweep times the scenario-sweep harness against the pre-harness
// idiom (one agree.Run per config, paying engine construction every call).
// The workers=1 variant isolates the engine-reuse dividend (same work, one
// engine); the parallel variant adds the worker pool (speedup scales with
// core count — on one CPU it degrades to the sequential path). Each variant
// reports configs/sec as its domain throughput metric.
func BenchmarkSweep(b *testing.B) {
	configs := sweepBenchConfigs()
	batch := float64(len(configs))
	b.Run("repeated-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cfg := range configs {
				run(b, cfg)
			}
		}
		b.ReportMetric(batch*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
	})
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sr := agree.Sweep(configs, agree.SweepOptions{Workers: 1}); sr.Aggregate.Errored != 0 {
				b.Fatal("sweep errored")
			}
		}
		b.ReportMetric(batch*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sr := agree.Sweep(configs, agree.SweepOptions{}); sr.Aggregate.Errored != 0 {
				b.Fatal("sweep errored")
			}
		}
		b.ReportMetric(batch*float64(b.N)/b.Elapsed().Seconds(), "configs/s")
	})
}

// BenchmarkFuzz times the randomized fuzzing campaign (agree.Fuzz) on the
// faithful algorithm at n=16: a 256-seed campaign per iteration, reporting
// fuzz executions per second as the domain throughput metric. The workers=1
// variant is the single-core generator+oracle cost; the parallel variant
// adds the worker pool (bit-identical report, speedup scales with cores).
func BenchmarkFuzz(b *testing.B) {
	cfg := agree.FuzzConfig{N: 16, T: 5, Seeds: 256, CrashProb: 0.25}
	for _, variant := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"parallel", 0}} {
		b.Run(variant.name, func(b *testing.B) {
			execs := 0
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Workers = variant.workers
				rep, err := agree.Fuzz(c)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Findings) != 0 {
					b.Fatalf("faithful algorithm produced findings: %+v", rep.Findings[0])
				}
				execs += rep.Executions
			}
			b.ReportMetric(float64(execs)/b.Elapsed().Seconds(), "execs/s")
		})
	}
}

// benchLockstepReuse drives one persistent lockstep runtime through b.N
// rebuilt workloads (n procs, f coordinator crashes). Engine construction —
// per-process goroutines and the n×n channel matrix — is paid once before the
// timer starts; each iteration pays only process construction, Reset and the
// run itself, which is how the sweep harness drives the engine now that it is
// Reusable.
func benchLockstepReuse(b *testing.B, n, f int) {
	b.Helper()
	props := make([]sim.Value, n)
	for j := range props {
		props[j] = sim.Value(100 + j)
	}
	cfg := lockstep.Config{Model: sim.ModelExtended}
	rt, err := lockstep.New(cfg, core.NewSystem(props, core.Options{}),
		adversary.CoordinatorKiller{F: f})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Reset(cfg, core.NewSystem(props, core.Options{}),
			adversary.CoordinatorKiller{F: f}); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockstepEngine times the goroutine runtime against the
// deterministic engine's workload (n=32, f=4): the cost of real concurrency
// on the reuse path (goroutines parked between runs, not respawned).
func BenchmarkLockstepEngine(b *testing.B) {
	benchLockstepReuse(b, 32, 4)
}

// BenchmarkLockstepEngineN scales the reused goroutine runtime across system
// sizes at f = n/8 (the headline BenchmarkLockstepEngine ratio); the cold
// construction path across sizes lives in BenchmarkEngineScaling.
func BenchmarkLockstepEngineN(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchLockstepReuse(b, n, n/8)
		})
	}
}

// BenchmarkDeterministicEngine is the sequential-engine twin of
// BenchmarkLockstepEngine.
func BenchmarkDeterministicEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run(b, agree.Config{N: 32, Faults: agree.CoordinatorCrashes(4)})
	}
}

// BenchmarkTimedEngine is the continuous-time twin of
// BenchmarkLockstepEngine / BenchmarkDeterministicEngine (n=32, f=4): the
// cost of scheduling every message as a discrete event with seeded
// within-bound jitter.
func BenchmarkTimedEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run(b, agree.Config{N: 32, Engine: agree.EngineTimed,
			Latency: agree.JitterLatency(7, 1, 0.1, 0.1, 0.85),
			Faults:  agree.CoordinatorCrashes(4)})
	}
}

// BenchmarkTelemetryOverhead prices the telemetry recorder on the two
// workloads it instruments most densely: the E1 failure-free happy path
// (per-round series on the deterministic engine) and the timed workload
// (round series plus DES batch spans and heap/pool samples). The /off
// variants run the default nil-recorder path — their ns/op and allocs/op
// must match the uninstrumented engine benchmarks — and the /on variants
// record and retain everything; the ratio between the two is the headline
// overhead number in docs/benchmarks.md.
func BenchmarkTelemetryOverhead(b *testing.B) {
	shapes := []struct {
		name string
		cfg  agree.Config
	}{
		{"e1", agree.Config{N: 64}},
		{"timed", agree.Config{N: 32, Engine: agree.EngineTimed,
			Latency: agree.JitterLatency(7, 1, 0.1, 0.1, 0.85),
			Faults:  agree.CoordinatorCrashes(4)}},
	}
	for _, s := range shapes {
		for _, enabled := range []bool{false, true} {
			cfg := s.cfg
			cfg.Telemetry = enabled
			mode := "off"
			if enabled {
				mode = "on"
			}
			b.Run(s.name+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run(b, cfg)
				}
			})
		}
	}
}

// BenchmarkTimedEngineN scales the timed workload across system sizes at
// f = n/8 (the headline BenchmarkTimedEngine ratio): event-count growth is
// quadratic in n, so this series shows how far the pooled scheduler keeps
// per-event cost flat.
func BenchmarkTimedEngineN(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, agree.Config{N: n, Engine: agree.EngineTimed,
					Latency: agree.JitterLatency(7, 1, 0.1, 0.1, 0.85),
					Faults:  agree.CoordinatorCrashes(n / 8)})
			}
		})
	}
}

// BenchmarkSnapshot times one Chandy–Lamport snapshot over a busy 6-node
// token bank on the asynchronous goroutine engine.
func BenchmarkSnapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		collector := snapshot.NewCollector()
		handlers := make([]async.Handler, 6)
		for j := 1; j <= 6; j++ {
			var plan []snapshot.PlannedTransfer
			for k := 1; k <= 6; k++ {
				if k != j {
					plan = append(plan, snapshot.PlannedTransfer{
						To: async.NodeID(k), Amount: 50, Hops: 4})
				}
			}
			handlers[j-1] = snapshot.NewNode(
				snapshot.NewBank(async.NodeID(j), 6, 1000, plan), collector, j == 1)
		}
		eng, err := async.NewEngine(handlers)
		if err != nil {
			b.Fatal(err)
		}
		eng.Run()
		if !collector.Complete(6) {
			b.Fatal("snapshot incomplete")
		}
	}
}

// BenchmarkSimulationStride measures the raw cost of the micro-round
// expansion as n grows.
func BenchmarkSimulationStride(b *testing.B) {
	var stride int
	for i := 0; i < b.N; i++ {
		rep := run(b, agree.Config{N: 24, SimulateOnClassic: true,
			Faults: agree.NoFaults()})
		stride = rep.Rounds / rep.MacroRounds
	}
	if stride != simulate.Stride(24) {
		b.Fatalf("stride = %d, want %d", stride, simulate.Stride(24))
	}
}

// BenchmarkDES times the raw discrete-event core (100k cascading events).
func BenchmarkDES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s des.Sim
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < 100_000 {
				s.After(1, tick)
			}
		}
		s.At(0, tick)
		s.Run(des.Infinity)
	}
}

// BenchmarkE11AverageCase times one batch of randomized average-case runs
// (20 seeds, n=8).
func BenchmarkE11AverageCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for seed := int64(0); seed < 20; seed++ {
			run(b, agree.Config{N: 8, Faults: agree.RandomFaults(seed, 0.01, 7)})
		}
	}
}

// BenchmarkE13Valency times the valency classification of a mixed
// 3-process configuration (exhausts all continuations).
func BenchmarkE13Valency(b *testing.B) {
	var execs int
	for i := 0; i < b.N; i++ {
		factory := func(ch interface{ Choose(int) int }) check.Execution {
			props := []sim.Value{0, 1, 1}
			return check.Execution{
				Procs:     core.NewSystem(props, core.Options{}),
				Adv:       adversary.NewFromChooser(ch, 2, 3),
				Cfg:       sim.Config{Model: sim.ModelExtended, Horizon: 5},
				Proposals: props,
			}
		}
		v, err := check.ValencySet(factory, check.ExploreOpts{Budget: 1_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if !v.Bivalent() {
			b.Fatal("expected bivalent")
		}
		execs = v.Executions
	}
	b.ReportMetric(float64(execs), "executions")
}

// BenchmarkE14LossyChannels times a CRW run under 15% random channel loss
// (the unreliable-network ablation), expressed as randomized send omissions
// through the first-class omission fault model.
func BenchmarkE14LossyChannels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		props := []sim.Value{10, 11, 12, 13}
		procs := core.NewSystem(props, core.Options{})
		eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended, Horizon: 6},
			procs, adversary.NewRandomOmission(int64(i), 0.15, 0, len(props), len(props)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil && !errors.Is(err, sim.ErrNoProgress) {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Omission times one batch of randomized omission-model runs
// (20 seeds, n=8, mixed send+receive omissions through the public FaultSpec):
// the E11-style average-case workload transposed to the omission fault
// model. Consensus may legitimately fail under omissions, so only engine
// errors other than horizon exhaustion are fatal.
func BenchmarkE11Omission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for seed := int64(0); seed < 20; seed++ {
			rep, err := agree.Run(agree.Config{N: 8, Faults: agree.OmissionFaults(seed, 0.05, 0.05, 7)})
			if err != nil && !errors.Is(err, sim.ErrNoProgress) {
				b.Fatal(err)
			}
			_ = rep
		}
	}
}

// BenchmarkSMRThroughput times a 50-slot replicated log over the paper's
// algorithm (one round per commit, failure-free).
func BenchmarkSMRThroughput(b *testing.B) {
	var perCommit float64
	for i := 0; i < b.N; i++ {
		res, err := smr.Run(smr.Config{N: 8, Slots: 50})
		if err != nil {
			b.Fatal(err)
		}
		perCommit = res.RoundsPerCommit()
	}
	b.ReportMetric(perCommit, "rounds/commit")
}

// BenchmarkServe times the replicated-log service end to end: an n=8
// pipelined log on the timed engine under Poisson arrivals, 2000 commands
// per run, reporting the sustained simulated-time throughput (which is
// deterministic, so the metric doubles as a regression pin).
func BenchmarkServe(b *testing.B) {
	var perHour float64
	for i := 0; i < b.N; i++ {
		rep, err := agree.Serve(agree.ServeConfig{
			N: 8, RotateLeader: true,
			Latency:     agree.ProfileLatency("1g"),
			Workload:    agree.PoissonArrivals(200_000, 1),
			MaxCommands: 2000,
		})
		if err != nil {
			b.Fatal(err)
		}
		perHour = rep.CommandsPerHour
	}
	b.ReportMetric(perHour/1e6, "Mcmds/simhour")
}

// BenchmarkWorstScheduleSearch times the exhaustive worst-schedule search
// for n=4, t=2 (the constructive Theorem 4 witness).
func BenchmarkWorstScheduleSearch(b *testing.B) {
	factory := func(ch interface{ Choose(int) int }) check.Execution {
		props := []sim.Value{10, 11, 12, 13}
		return check.Execution{
			Procs:     core.NewSystem(props, core.Options{}),
			Adv:       adversary.NewFromChooser(ch, 2, 4),
			Cfg:       sim.Config{Model: sim.ModelExtended, Horizon: 6},
			Proposals: props,
		}
	}
	for i := 0; i < b.N; i++ {
		w, err := check.FindWorstSchedule(factory, check.ExploreOpts{Budget: 1_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if w.DecideRound != 3 {
			b.Fatalf("worst decide round = %d, want 3", w.DecideRound)
		}
	}
}

// BenchmarkEngineScaling compares both engines across system sizes on the
// worst-case f = n/4 workload: the deterministic kernel's cost is dominated
// by message routing, the lockstep runtime's by goroutine barriers.
func BenchmarkEngineScaling(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		n := n
		b.Run(fmt.Sprintf("deterministic/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, agree.Config{N: n, Faults: agree.CoordinatorCrashes(n / 4)})
			}
		})
		b.Run(fmt.Sprintf("lockstep/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				props := make([]sim.Value, n)
				for j := range props {
					props[j] = sim.Value(100 + j)
				}
				rt, err := lockstep.New(lockstep.Config{Model: sim.ModelExtended},
					core.NewSystem(props, core.Options{}),
					adversary.CoordinatorKiller{F: n / 4})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rt.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExhaustiveN5T4 times the deepest default exhaustive configuration
// (24,959 executions, Theorem 4 tightness at t+1 = 5).
func BenchmarkExhaustiveN5T4(b *testing.B) {
	var execs int
	for i := 0; i < b.N; i++ {
		factory := func(ch interface{ Choose(int) int }) check.Execution {
			props := []sim.Value{10, 11, 12, 13, 14}
			return check.Execution{
				Procs:     core.NewSystem(props, core.Options{}),
				Adv:       adversary.NewFromChooser(ch, 4, 5),
				Cfg:       sim.Config{Model: sim.ModelExtended, Horizon: 7},
				Proposals: props,
			}
		}
		stats, err := check.Explore(factory,
			func(ex check.Execution, res *sim.Result, engineErr error) error {
				if engineErr != nil {
					return engineErr
				}
				return check.Consensus(ex.Proposals, res)
			}, check.ExploreOpts{Budget: 10_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if len(stats.Counterexamples) != 0 {
			b.Fatal("unexpected violation")
		}
		execs = stats.Executions
	}
	b.ReportMetric(float64(execs), "executions")
}
