package main

// probes.go derives the per-layer metrics of the traced run. Every probe
// calls a layer's public functions from the outside; nothing inside the
// program is instrumented. Each probe writes the metrics it owns into
// ledger.out.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/agree"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/lan"
	"repro/internal/laws"
	"repro/internal/lockstep"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/telemetry"
	"repro/internal/timed"
	"repro/internal/workload"
)

// ledger is the state of one traced run.
type ledger struct {
	root   string
	seed   int64
	smoke  bool
	noCmd  bool // skip the probes that build and execute the cmd binaries
	tr     *tracer
	out    map[string]float64
	series map[string][]point
}

// budget is the time one probe loop may take: ms milliseconds, a twentieth
// of it in a smoke run.
func (l *ledger) budget(ms int) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if l.smoke {
		d /= 20
	}
	return d
}

// loop calls f until the budget is spent, at least minN times, and returns
// the duration f reports for each call in nanoseconds.
func loop(budget time.Duration, minN int, f func() time.Duration) []float64 {
	var ns []float64
	var spent time.Duration
	for spent < budget || len(ns) < minN {
		d := f()
		spent += d
		ns = append(ns, float64(d))
	}
	return ns
}

// alternate times a and b in turn until the budget is spent, each at least
// minN times, and returns their durations in nanoseconds. Alternating keeps a
// drift of the host out of the ratio of the two.
func alternate(budget time.Duration, minN int, a, b func()) (aNs, bNs []float64) {
	for spent := time.Duration(0); spent < budget || len(bNs) < minN; {
		da, db := timeIt(a), timeIt(b)
		aNs, bNs = append(aNs, float64(da)), append(bNs, float64(db))
		spent += da + db
	}
	return aNs, bNs
}

// timeIt times one call.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// mallocs returns the heap allocations f performs.
func mallocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// ---- raw engines ----------------------------------------------------------

// rawEngine drives one engine below the harness adapter, reusing it across
// runs the way the adapter does (Reset between jobs).
type rawEngine struct {
	kind    harness.Kind
	rec     *telemetry.Recorder // optional, timed only
	det     *sim.Engine
	model   sim.Model
	horizon sim.Round
	timed   *timed.Engine
	lock    *lockstep.Runtime
}

// layerOf names the layer of an engine kind in metric names.
func layerOf(kind harness.Kind) string {
	switch kind {
	case harness.KindTimed:
		return "timed"
	case harness.KindLockstep:
		return "lockstep"
	}
	return "sim"
}

func (r *rawEngine) run(s spec, procs []sim.Process, adv sim.Adversary) (*sim.Result, error) {
	model, horizon := s.model()
	switch r.kind {
	case harness.KindTimed:
		cfg := timed.Config{Model: model, Horizon: horizon, Latency: sweepLatencyModel, Telemetry: r.rec}
		var err error
		if r.timed == nil {
			r.timed, err = timed.New(cfg, procs, adv)
		} else {
			err = r.timed.Reset(cfg, procs, adv)
		}
		if err != nil {
			return nil, err
		}
		return r.timed.Run()
	case harness.KindLockstep:
		cfg := lockstep.Config{Model: model, Horizon: horizon}
		var err error
		if r.lock == nil {
			r.lock, err = lockstep.New(cfg, procs, adv)
		} else {
			err = r.lock.Reset(cfg, procs, adv)
		}
		if err != nil {
			return nil, err
		}
		return r.lock.Run()
	}
	var err error
	if r.det != nil && r.model == model && r.horizon == horizon {
		err = r.det.Reset(procs, adv)
	} else {
		r.det, err = sim.NewEngine(sim.Config{Model: model, Horizon: horizon}, procs, adv)
		r.model, r.horizon = model, horizon
	}
	if err != nil {
		return nil, err
	}
	return r.det.Run()
}

func (r *rawEngine) close() {
	if r.lock != nil {
		r.lock.Close()
		r.lock = nil
	}
}

// probeRawEngine prices the canonical operation C32 on one raw engine:
// <layer>.run_ns (fast tail), <layer>.allocs_per_run, and the derived unit cost
// (ns per message, per DES event or per round).
func (l *ledger) probeRawEngine(kind harness.Kind) error {
	s, layer := c32(), layerOf(kind)
	props := s.values()
	raw := &rawEngine{kind: kind}
	defer raw.close()
	var res *sim.Result
	var runErr error
	one := func() time.Duration {
		procs, adv := s.build(props)
		t := l.tr.now()
		d := timeIt(func() { res, runErr = raw.run(s, procs, adv) })
		l.tr.add(layer+".c32", "", 0, t)
		return d
	}
	if one(); runErr != nil { // the first run constructs the engine
		return runErr
	}
	ns := loop(l.budget(200), 5, one)
	if runErr != nil {
		return runErr
	}
	runNs := fast(ns)
	l.out[layer+".run_ns"] = runNs
	const k = 20
	both := mallocs(func() {
		for i := 0; i < k; i++ {
			procs, adv := s.build(props)
			_, _ = raw.run(s, procs, adv)
		}
	})
	build := mallocs(func() {
		for i := 0; i < k; i++ {
			s.build(props)
		}
	})
	l.out[layer+".allocs_per_run"] = (both - build) / k
	switch kind {
	case harness.KindDeterministic:
		l.out["sim.msg_ns"] = runNs / float64(res.Counters.TotalMsgs())
	case harness.KindLockstep:
		l.out["lockstep.round_ns"] = runNs / float64(res.Rounds)
		buildNs := loop(l.budget(60), 3, func() time.Duration {
			procs, adv := s.build(props)
			model, horizon := s.model()
			var rt *lockstep.Runtime
			d := timeIt(func() { rt, runErr = lockstep.New(lockstep.Config{Model: model, Horizon: horizon}, procs, adv) })
			if rt != nil {
				rt.Close()
			}
			return d
		})
		l.out["lockstep.build_ms"] = fast(buildNs) / 1e6
	case harness.KindTimed:
		if err := l.probeDES(s, props, runNs); err != nil {
			return err
		}
	}
	return runErr
}

// probeLockstepProcs prices the second P under the lockstep runtime, which
// the sweep_lockstep workload itself runs without: C32 with GOMAXPROCS 2 over
// the same with 1 (base: one P), alternating on one reused runtime.
func (l *ledger) probeLockstepProcs() error {
	s := c32()
	props := s.values()
	raw := &rawEngine{kind: harness.KindLockstep}
	defer raw.close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ns [2][]float64
	for spent := time.Duration(0); spent < l.budget(300) || len(ns[1]) < 6; {
		for k := range ns {
			runtime.GOMAXPROCS(k + 1)
			procs, adv := s.build(props)
			var err error
			d := timeIt(func() { _, err = raw.run(s, procs, adv) })
			if err != nil {
				return err
			}
			ns[k], spent = append(ns[k], float64(d)), spent+d
		}
	}
	// The first round constructed the runtime.
	l.out["lockstep.procs2_ratio"] = fast(ns[1][1:]) / fast(ns[0][1:])
	return nil
}

// probeDES counts the DES work of C32 through the telemetry recorder the
// timed engine already feeds (events, peak heap, pool hit rate) and prices a
// raw des.Sim replaying that many events with the timed engine's fan-out.
func (l *ledger) probeDES(s spec, props []sim.Value, timedRunNs float64) error {
	rec := telemetry.New()
	raw := &rawEngine{kind: harness.KindTimed, rec: rec}
	procs, adv := s.build(props)
	res, err := raw.run(s, procs, adv)
	if err != nil {
		return err
	}
	events := 0
	for _, sp := range rec.Spans() {
		if sp.Kind == telemetry.SpanBatch {
			events += int(sp.Count)
		}
	}
	heapMax := 0.0
	for _, smp := range rec.Samples(telemetry.SeriesHeapSize) {
		heapMax = max(heapMax, smp.V)
	}
	if pool := rec.Samples(telemetry.SeriesPoolHitRate); len(pool) > 0 {
		l.out["des.pool_hit_rate"] = pool[len(pool)-1].V
	}
	if events == 0 {
		return fmt.Errorf("des probe: the timed engine recorded no event batches")
	}
	l.out["des.events_per_op"] = float64(events)
	l.out["des.heap_max"] = heapMax
	l.out["timed.event_ns"] = timedRunNs / float64(events)

	replay := &desReplay{fan: max(1, events/int(res.Rounds)-2)}
	ns := loop(l.budget(150), 3, func() time.Duration {
		t := l.tr.now()
		d := timeIt(func() { replay.run(events) })
		l.tr.add("des.replay", "", 0, t)
		return d
	})
	l.out["des.event_ns"] = fast(ns) / float64(events)
	return nil
}

// desReplay schedules events on a bare des.Sim in the timed engine's pattern:
// per round, one round-start event fans out deliveries at jittered times
// within the round and one deadline event closes it.
type desReplay struct {
	s         des.Sim
	fan       int
	remaining int
	delivered int
	start     desRoundStart
	deliver   desDeliver
}

type desRoundStart struct{ r *desReplay }
type desDeliver struct{ r *desReplay }

func (a *desRoundStart) Act() {
	r := a.r
	for i := 0; i < r.fan && r.remaining > 0; i++ {
		r.remaining--
		r.s.AfterAct(des.Time(0.1+0.85*float64(i%17)/17), &r.deliver)
	}
	if r.remaining > 0 {
		r.remaining--
		r.s.AfterAct(1.1, &r.start)
	}
}

func (a *desDeliver) Act() { a.r.delivered++ }

func (r *desReplay) run(events int) {
	r.s.Reset()
	r.start.r, r.deliver.r = r, r
	r.remaining = events - 1
	r.s.AtAct(0, &r.start)
	r.s.Run(des.Infinity)
}

// probeScale times the raw engine over n = 8..256 at f = n/8, persists the
// points and fits the growth exponent.
func (l *ledger) probeScale(kind harness.Kind) error {
	layer := layerOf(kind)
	sizes := []int{8, 16, 32, 64, 128, 256}
	if l.smoke {
		sizes = sizes[:4]
	}
	var pts, rounds []point
	for _, n := range sizes {
		s := scaleSpec(n)
		props := s.values()
		raw := &rawEngine{kind: kind}
		var res *sim.Result
		var runErr error
		one := func() time.Duration {
			procs, adv := s.build(props)
			return timeIt(func() { res, runErr = raw.run(s, procs, adv) })
		}
		one()
		ns := loop(l.budget(40), 3, one)
		raw.close()
		if runErr != nil {
			return runErr
		}
		pts = append(pts, point{N: n, Ns: fast(ns)})
		rounds = append(rounds, point{N: n, Ns: fast(ns) / float64(res.Rounds)})
	}
	l.series[layer+".scale"] = pts
	if kind == harness.KindLockstep {
		l.series["lockstep.round_ns"] = rounds
	}
	l.out[layer+".scale_exp"] = logLogSlope(pts)
	return nil
}

// ---- sweep ladder ---------------------------------------------------------

// sweepRungs returns the rungs of the sweep ladder. Each rung passes over
// every configuration of L back to back — the access pattern of the sweep
// itself — with one span per call: core.build → <engine>.run → laws.audit →
// check.consensus → harness.run → agree.sweep → agree.run. A span's parent
// names the rung whose call contains it inside the program.
func (l *ledger) sweepRungs(w *sweepRunner, raw *rawEngine, cache *harness.Cache) []func(pass int) error {
	tr, kind := l.tr, raw.kind
	engineSpan := layerOf(kind) + ".run"
	each := func(f func(op int, s spec, props []sim.Value) error) func(int) error {
		return func(int) error {
			for op, s := range w.L {
				if err := f(op, s, s.values()); err != nil {
					return fmt.Errorf("ladder, config %d: %w", op, err)
				}
			}
			return nil
		}
	}
	return []func(pass int) error{
		each(func(op int, s spec, props []sim.Value) error {
			t := tr.now()
			s.build(props)
			tr.add("core.build", "agree.sweep_cfg", op, t)
			return nil
		}),
		each(func(op int, s spec, props []sim.Value) error {
			procs, adv := s.build(props)
			t := tr.now()
			res, err := raw.run(s, procs, adv)
			tr.add(engineSpan, "harness.run", op, t)
			if err != nil {
				return err
			}
			t = tr.now()
			err = laws.AuditAll(res, s.budget())
			tr.add("laws.audit", "harness.run", op, t)
			if err != nil {
				return err
			}
			t = tr.now()
			err = check.Consensus(props, res)
			tr.add("check.consensus", "agree.sweep_cfg", op, t)
			return err
		}),
		each(func(op int, s spec, props []sim.Value) error {
			procs, adv := s.build(props)
			eng, err := cache.Get(kind)
			if err != nil {
				return err
			}
			t := tr.now()
			_, err = eng.Run(s.job(kind, procs, adv))
			tr.add("harness.run", "agree.sweep_cfg", op, t)
			return err
		}),
		func(pass int) error {
			t := tr.now()
			w.run(pass)
			tr.add("agree.sweep", "", pass, t)
			return nil
		},
		each(func(op int, s spec, _ []sim.Value) error {
			cfg := s.config(w.engine)
			t := tr.now()
			_, err := agree.Run(cfg)
			tr.add("agree.run", "", op, t)
			return err
		}),
	}
}

// probeSweepLadder walks the ladder (every rung at least once, then for the
// time budget, starting each pass at the next rung so no rung always runs on
// the caches another one warmed) and derives the ladder metrics as means per
// operation of L.
func (l *ledger) probeSweepLadder(w *sweepRunner, seconds float64) error {
	raw := &rawEngine{kind: harness.Kind(w.engine)}
	defer raw.close()
	cache := harness.NewCache()
	defer cache.Close()
	rungs := l.sweepRungs(w, raw, cache)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for k := range rungs {
			if err := rungs[(pass+k)%len(rungs)](pass); err != nil {
				return err
			}
		}
	}
	tr := l.tr
	get := tr.perOpNs
	var passes []float64
	for _, s := range tr.spans {
		if s.Name == "agree.sweep" {
			passes = append(passes, float64(s.End-s.Start))
		}
	}
	sweep := fast(passes) / float64(len(w.L))
	l.out["core.build_ns"] = get("core.build")
	l.out["laws.audit_ns"] = get("laws.audit")
	l.out["check.consensus_ns"] = get("check.consensus")
	l.out["harness.run_ns"] = get("harness.run")
	l.out["harness.self_ns"] = tr.selfNs("harness.run", get)
	l.out["agree.run_ns"] = get("agree.run")
	l.out["agree.sweep_cfg_ns"] = sweep
	l.out["agree.self_ns"] = sweep - get("core.build") - get("harness.run") - get("check.consensus")
	agg := w.last.Aggregate
	l.out["harness.reuse_ratio"] = float64(agg.EngineReuses) / float64(agg.EnginesBuilt+agg.EngineReuses)

	rep, err := agree.Run(c32().config(w.engine))
	if err != nil {
		return err
	}
	js := loop(l.budget(30), 5, func() time.Duration {
		return timeIt(func() { _, err = json.Marshal(rep) })
	})
	l.out["agree.report_json_ns"] = fast(js)
	return err
}

// probeTelemetrySweep prices Config.Telemetry on passes over L: wall time on
// over wall time off (base: off), spans recorded per operation, and the cost
// of exporting one pass's recordings.
func (l *ledger) probeTelemetrySweep(w *sweepRunner) error {
	on := append([]agree.Config(nil), w.cfgs...)
	for i := range on {
		on[i].Telemetry = true
	}
	var last *agree.SweepReport
	offNs, onNs := alternate(l.budget(400), 3,
		func() { agree.Sweep(w.cfgs, agree.SweepOptions{Workers: 1}) },
		func() { last = agree.Sweep(on, agree.SweepOptions{Workers: 1}) })
	l.out["telemetry.on_overhead_ratio"] = fast(onNs) / fast(offNs)
	spans := 0
	export := timeIt(func() {
		for i := range last.Items {
			if rep := last.Items[i].Report; rep != nil {
				var events []json.RawMessage
				if err := json.Unmarshal(rep.Telemetry.ChromeTrace(), &events); err == nil {
					spans += len(events)
				}
				rep.Telemetry.MetricsJSON()
			}
		}
	})
	l.out["telemetry.spans_per_op"] = float64(spans) / float64(len(on))
	l.out["telemetry.export_ms"] = float64(export) / 1e6
	return nil
}

// probePool prices the harness worker pool on L (deterministic engine): wall
// of Workers:1 over wall of Workers:GOMAXPROCS (base: the pool run), and the
// share of worker time the pool spends outside jobs.
func (l *ledger) probePool() error {
	cfgs := configs(genL(l.seed), agree.EngineDeterministic)
	workers := runtime.GOMAXPROCS(0)
	oneNs, poolNs := alternate(l.budget(400), 3,
		func() { agree.Sweep(cfgs, agree.SweepOptions{Workers: 1}) },
		func() { agree.Sweep(cfgs, agree.SweepOptions{Workers: workers}) })
	l.out["harness.pool_speedup"] = fast(oneNs) / fast(poolNs)
	prof := telemetry.NewProfile()
	agree.Sweep(cfgs, agree.SweepOptions{Workers: workers, Profile: prof})
	total := time.Duration(0)
	for ph := telemetry.Phase(0); ph < telemetry.NumPhases; ph++ {
		total += prof.Get(ph)
	}
	if total > 0 {
		l.out["harness.queue_wait_share"] = float64(prof.Get(telemetry.PhaseQueueWait)) / float64(total)
	}
	return nil
}

// ---- fuzz ladder ----------------------------------------------------------

// probeFuzzLadder walks the faithful campaign seed by seed below agree.Fuzz:
// fuzz.build (the target factory: core.NewSystem), fuzz.seed (fuzz.RunSeed on
// a cached engine), fuzz.replay (the harness adapter replaying the recorded
// script) and fuzz.oracle — the three fuzz.seed contains. fuzz.gen_self_ns is
// what remains of a seed after them: the generating adversary and the script
// recording.
// core.build_ns and harness.run_ns are here the fuzzer's use of those layers
// (fuzz.build, fuzz.replay).
func (l *ledger) probeFuzzLadder(base int64, seconds float64) error {
	cfg := fuzzConfig(false, base, 1, 1)
	props := make([]sim.Value, cfg.N)
	for i := range props {
		props[i] = sim.Value(100 + i)
	}
	factory := func() fuzz.Target {
		return fuzz.Target{Model: sim.ModelExtended, Horizon: sim.Round(cfg.N + 2),
			Procs: core.NewSystem(props, core.Options{}), Proposals: props}
	}
	oracle := fuzz.Oracles(fuzz.ConsensusOracle(check.BoundFPlus1), fuzz.LawOracle(laws.Budget{Crashes: cfg.T}))
	opts := fuzz.Options{Gen: fuzz.Gen{T: cfg.T, CrashProb: cfg.CrashProb}}
	cache := harness.NewCache()
	defer cache.Close()
	eng, err := cache.Get(harness.KindDeterministic)
	if err != nil {
		return err
	}
	tr := l.tr
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for op := 0; op < 50 || time.Now().Before(deadline); op++ {
		t := tr.now()
		tgt := factory()
		tr.add("fuzz.build", "fuzz.seed", op, t)

		t = tr.now()
		out, err := fuzz.RunSeed(eng, factory, oracle, base+int64(op), opts)
		tr.add("fuzz.seed", "", op, t)
		if err != nil {
			return err
		}
		if out.Err != nil {
			return fmt.Errorf("fuzz ladder: seed %d violates %v", out.Seed, out.Err)
		}

		adv := out.Script.Adversary()
		t = tr.now()
		res, rerr := eng.Run(harness.Job{Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: adv})
		tr.add("fuzz.replay", "fuzz.seed", op, t)
		if res == nil {
			return rerr
		}

		t = tr.now()
		verdict := oracle(tgt.Proposals, res, rerr)
		tr.add("fuzz.oracle", "fuzz.seed", op, t)
		if verdict != nil {
			return fmt.Errorf("fuzz ladder: replay of seed %d violates %v", out.Seed, verdict)
		}
	}
	// Every seed is a different execution, visited once: plain means.
	l.out["fuzz.seed_ns"] = tr.meanNs("fuzz.seed")
	l.out["fuzz.oracle_ns"] = tr.meanNs("fuzz.oracle")
	l.out["fuzz.gen_self_ns"] = tr.selfNs("fuzz.seed", tr.meanNs)
	l.out["core.build_ns"] = tr.meanNs("fuzz.build")
	l.out["harness.run_ns"] = tr.meanNs("fuzz.replay")
	return nil
}

// ---- serve ----------------------------------------------------------------

// smrOptions is the session below agree.Serve: what agree.Serve hands to
// smr.Serve for the same configuration.
func smrOptions(s serveSession, cmds int, rec *telemetry.Recorder) (smr.ServeOptions, error) {
	open, err := workload.NewOpen(workload.Poisson{Rate: s.Rate}, s.Seed)
	if err != nil {
		return smr.ServeOptions{}, err
	}
	return smr.ServeOptions{
		N: serveN, Protocol: smr.ProtocolCRW, RotateLeader: true, Engine: harness.KindTimed,
		Latency: timed.Profile{P: lan.Ethernet1G}, Arrivals: open,
		MaxCommands: cmds, BatchLimit: serveBatchLim,
		CrashAt:   map[sim.ProcID]float64{1: serveCrashAt * float64(cmds) / serveCmds},
		Telemetry: rec,
	}, nil
}

// probeServe prices the service path layer by layer on the reported session:
// the arrival generator alone, smr.Serve called directly, agree.Serve on top
// of it, and the same session with telemetry on.
func (l *ledger) probeServe(w *serveRunner) error {
	s, cfg := w.block[0], w.block[0].config(w.cmds)
	open, err := workload.NewOpen(workload.Poisson{Rate: s.Rate}, s.Seed)
	if err != nil {
		return err
	}
	pop := timeIt(func() {
		for i := 0; i < w.cmds; i++ {
			open.Pop()
		}
	})
	l.out["workload.arrival_ns"] = float64(pop) / float64(w.cmds)

	var agreeNs, smrNs, onNs []float64
	var res *smr.ServeResult
	var rep *agree.ServeReport
	on := cfg
	on.Telemetry = true
	for spent := time.Duration(0); spent < l.budget(900) || len(onNs) < 3; {
		opts, err := smrOptions(s, w.cmds, nil)
		if err != nil {
			return err
		}
		t := l.tr.now()
		d := timeIt(func() { res, err = smr.Serve(opts) })
		l.tr.add("smr.serve", "agree.serve", len(smrNs), t)
		if err != nil {
			return err
		}
		smrNs, spent = append(smrNs, float64(d)), spent+d

		t = l.tr.now()
		d = timeIt(func() { _, err = agree.Serve(cfg) })
		l.tr.add("agree.serve", "", len(agreeNs), t)
		if err != nil {
			return err
		}
		agreeNs, spent = append(agreeNs, float64(d)), spent+d

		d = timeIt(func() { rep, err = agree.Serve(on) })
		if err != nil {
			return err
		}
		onNs, spent = append(onNs, float64(d)), spent+d
	}
	l.out["smr.serve_slot_us"] = fast(smrNs) / float64(res.Slots) / 1e3
	l.out["agree.serve_self_ms"] = (fast(agreeNs) - fast(smrNs)) / 1e6
	l.out["telemetry.on_overhead_ratio"] = fast(onNs) / fast(agreeNs)

	tel := rep.Telemetry()
	var events []json.RawMessage
	export := timeIt(func() {
		err = json.Unmarshal(tel.ChromeTrace(), &events)
		tel.MetricsJSON()
	})
	if err != nil {
		return err
	}
	l.out["telemetry.spans_per_op"] = float64(len(events)) / float64(rep.Commands)
	l.out["telemetry.export_ms"] = float64(export) / 1e6

	// Simulated queue wait: what a command waits before its slot launches is
	// its commit latency minus the time its slot is in flight.
	var timeline struct {
		Slots []struct{ Latency float64 }
	}
	if err := json.Unmarshal(tel.SlotTimelineJSON(), &timeline); err != nil {
		return err
	}
	inFlight := 0.0
	for _, sl := range timeline.Slots {
		inFlight += sl.Latency
	}
	if n := len(timeline.Slots); n > 0 {
		l.out["smr.sim_queue_wait_us"] = (rep.LatencyMean - inFlight/float64(n)) * 1e6
	}
	l.out["smr.cmds_per_slot"] = float64(rep.Commands) / float64(rep.Slots)
	l.out["smr.rounds_per_slot"] = float64(rep.TotalRounds) / float64(rep.Slots)
	l.out["smr.msgs_per_cmd"] = float64(rep.Counters.TotalMsgs()) / float64(rep.Commands)
	l.out["smr.bits_per_cmd"] = float64(rep.Counters.TotalBits()) / float64(rep.Commands)
	l.out["smr.engine_reuse_ratio"] = float64(rep.EngineReuses) / float64(rep.EnginesBuilt+rep.EngineReuses)
	return nil
}

// ---- scenario -------------------------------------------------------------

// probeScenario prices what set-up pays for the catalog: parsing each file,
// and one full replay.
func (l *ledger) probeScenario() error {
	dir := filepath.Join(l.root, "scenarios")
	var texts []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != scenario.Ext {
			return err
		}
		data, err := os.ReadFile(path)
		texts = append(texts, string(data))
		return err
	})
	if err != nil {
		return err
	}
	if len(texts) == 0 {
		return fmt.Errorf("no scenario files under %s", dir)
	}
	parse := loop(l.budget(30), 3, func() time.Duration {
		return timeIt(func() {
			for _, text := range texts {
				if _, perr := scenario.Parse(text); perr != nil {
					err = perr
				}
			}
		})
	})
	if err != nil {
		return err
	}
	l.out["scenario.parse_us"] = fast(parse) / float64(len(texts)) / 1e3
	replay := loop(l.budget(60), 3, func() time.Duration {
		return timeIt(func() {
			if rerr := replayCatalog(l.root); rerr != nil {
				err = rerr
			}
		})
	})
	l.out["scenario.catalog_replay_ms"] = fast(replay) / 1e6
	return err
}

// ---- cmd ------------------------------------------------------------------

// cmdProbe is one command-line invocation to time.
type cmdProbe struct {
	metric string
	unit   time.Duration // the metric's unit: time.Millisecond or time.Second
	execs  int
	bin    string
	args   []string
}

// probeCmds builds the given cmd packages into .bench_build inside the
// checkout (buildMetric, when named: the wall seconds of that build with the
// dependency cache warm) and times each probe hyperfine-style over several
// executions.
func (l *ledger) probeCmds(pkgs, buildMetric string, probes []cmdProbe) error {
	if l.noCmd {
		return nil
	}
	dir := filepath.Join(l.root, ".bench_build", "cmd")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	build := exec.CommandContext(ctx, "go", "build", "-o", dir+string(os.PathSeparator), pkgs)
	build.Dir = l.root
	build.Stderr = os.Stderr
	var err error
	d := timeIt(func() { err = build.Run() })
	if err != nil {
		return fmt.Errorf("building %s: %w", pkgs, err)
	}
	if buildMetric != "" {
		l.out[buildMetric] = d.Seconds()
	}
	for _, p := range probes {
		execs := p.execs
		if l.smoke {
			execs = 1
		}
		var ns []float64
		for i := 0; i < execs; i++ {
			c := exec.CommandContext(ctx, filepath.Join(dir, p.bin), p.args...)
			c.Dir = l.root
			d := timeIt(func() { err = c.Run() })
			if err != nil {
				return fmt.Errorf("%s %v: %w", p.bin, p.args, err)
			}
			ns = append(ns, float64(d))
		}
		l.out[p.metric] = fast(ns) / float64(p.unit)
	}
	return nil
}
