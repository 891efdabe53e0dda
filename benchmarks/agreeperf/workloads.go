package main

// workloads.go holds the five workloads. A workload is a sequence of batches;
// run executes one batch (the only part that is timed), check validates what
// the batch produced and says how many operations it was, and finish runs the
// checks that need the whole run and returns the simulated-time metrics and
// the digests.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"

	"repro/agree"
)

// runner is one workload instance.
type runner interface {
	// warm says how many warm-up batches set-up runs.
	warm() int
	// kinds is the length of the workload's block: batch i is of kind
	// i % kinds, and batches of one kind do the same amount of work.
	kinds() int
	// run executes batch i. Only this call is timed.
	run(i int)
	// check validates batch i and returns the operations attempted and failed.
	check(i int) (ops, failed int)
	// finish runs the end-of-run checks and returns the simulated metrics.
	finish() (*outcome, error)
}

// outcome is what a workload knows at the end of a run beyond host times.
type outcome struct {
	Sim     map[string]float64 // simulated-time metrics, exact for one seed
	Digests map[string]string  // printed as fields so two commits can be diffed
	Layer   map[string]float64 // per-layer counts read off the workload's own reports
	Failed  int                // failures found by the end-of-run checks
	Notes   []string           // first failure reasons, for the operator
}

// newRunner builds the named workload from the seed. A smoke run shortens the
// service sessions and the end-of-run checks.
func newRunner(name string, seed int64, smoke bool) (runner, error) {
	switch name {
	case wlSweepDet:
		return newSweep(name, agree.EngineDeterministic, seed), nil
	case wlSweepTimed:
		return newSweep(name, agree.EngineTimed, seed), nil
	case wlSweepLockstep:
		return newSweep(name, agree.EngineLockstep, seed), nil
	case wlFuzz:
		return &fuzzRunner{base: genFuzzBase(seed), workers: runtime.GOMAXPROCS(0), smoke: smoke,
			hist: map[int]int{}}, nil
	case wlServe:
		w := &serveRunner{block: genServeBlock(seed), cmds: serveCmds}
		if smoke {
			w.cmds /= 10
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// note keeps the first few failure reasons.
func note(notes []string, format string, args ...any) []string {
	if len(notes) < 5 {
		notes = append(notes, fmt.Sprintf(format, args...))
	}
	return notes
}

// ---- sweeps ---------------------------------------------------------------

// sweepRunner passes over L with agree.Sweep on one engine; one batch is one
// pass, one operation is one configuration.
type sweepRunner struct {
	name   string
	engine agree.EngineKind
	L      []spec
	cfgs   []agree.Config
	last   *agree.SweepReport
	dig    digester
	digest string // digest of the first pass; every later pass must equal it
	out    outcome
}

func newSweep(name string, engine agree.EngineKind, seed int64) *sweepRunner {
	L := genL(seed)
	return &sweepRunner{name: name, engine: engine, L: L, cfgs: configs(L, engine)}
}

func (w *sweepRunner) warm() int {
	if w.engine == agree.EngineLockstep {
		return 5
	}
	return 20
}

func (w *sweepRunner) kinds() int { return 1 }

func (w *sweepRunner) run(int) {
	w.last = agree.Sweep(w.cfgs, agree.SweepOptions{Workers: 1})
}

func (w *sweepRunner) check(int) (int, int) {
	failed := 0
	for i := range w.last.Items {
		item := &w.last.Items[i]
		if why := checkItem(w.L[i], item); why != "" {
			failed++
			w.out.Notes = note(w.out.Notes, "config %d: %s", i, why)
			continue
		}
		w.dig.add(i, w.L[i].N, item.Report)
	}
	d := w.dig.sum()
	if w.digest == "" {
		w.digest = d
		w.sims()
	} else if d != w.digest && failed == 0 {
		failed++
		w.out.Notes = note(w.out.Notes, "pass digest %s differs from the first pass %s", d, w.digest)
	}
	return len(w.cfgs), failed
}

// sims derives the simulated metrics from the current pass. Every pass is the
// same execution, so the first one is enough.
func (w *sweepRunner) sims() {
	var rounds, msgs, bits, simtime float64
	n := 0
	for i := range w.last.Items {
		rep := w.last.Items[i].Report
		if rep == nil {
			continue
		}
		n++
		rounds += float64(rep.MaxDecideRound())
		msgs += float64(rep.Counters.TotalMsgs())
		bits += float64(rep.Counters.TotalBits())
		simtime += rep.SimTime
	}
	if n == 0 {
		return
	}
	k := float64(n)
	w.out.Sim = map[string]float64{
		"sim_rounds_per_op": rounds / k,
		"sim_msgs_per_op":   msgs / k,
		"sim_bits_per_op":   bits / k,
	}
	if w.engine == agree.EngineTimed {
		w.out.Sim["sim_decide_time_per_op"] = simtime / k
	}
}

// finish also passes over L once on each of the other two engines: the three
// sweep workloads must print one result_digest, and a run of any of them
// fails when an engine changes the execution.
func (w *sweepRunner) finish() (*outcome, error) {
	if w.digest == "" {
		return nil, errors.New("no pass completed")
	}
	w.out.Digests = map[string]string{"result_digest": w.digest}
	for _, engine := range []agree.EngineKind{agree.EngineDeterministic, agree.EngineTimed, agree.EngineLockstep} {
		if engine == w.engine {
			continue
		}
		other := &sweepRunner{name: w.name, engine: engine, L: w.L, cfgs: configs(w.L, engine)}
		other.run(0)
		if _, failed := other.check(0); failed > 0 {
			w.out.Failed += failed
			w.out.Notes = append(w.out.Notes, other.out.Notes...)
		} else if other.digest != w.digest {
			w.out.Failed++
			w.out.Notes = note(w.out.Notes, "result_digest on %s is %s, on %s %s", engine, other.digest, w.engine, w.digest)
		}
	}
	return &w.out, nil
}

// ---- fuzz -----------------------------------------------------------------

// fuzzSimPrefix bounds the batches whose decide-round histogram feeds
// sim_rounds_per_op: the faithful batches among the first fuzzSimPrefix. A
// fixed prefix, so the value does not depend on how many batches the host
// managed within the run.
const fuzzSimPrefix = 2 * fuzzBlock

// fuzzRunner runs agree.Fuzz in batches of fuzzBatchSeeds seeds: four batches
// of the faithful campaign, then one of the commit-as-data ablation. One
// operation is one engine execution, replay and shrink runs included.
type fuzzRunner struct {
	base    int64
	workers int
	smoke   bool
	last    *agree.FuzzReport
	lastErr error
	hist    map[int]int // decide rounds of the faithful batches of the prefix
	inHist  [fuzzSimPrefix]bool
	// Useful outcomes against attempts, summed over the checked batches.
	seeds, execs                int // both campaigns
	ablSeeds, ablExecs, ablFind int // ablation campaign only
	out                         outcome
}

func (w *fuzzRunner) warm() int { return 2 * fuzzBlock }

func (w *fuzzRunner) kinds() int { return fuzzBlock }

func (w *fuzzRunner) ablation(i int) bool { return i%fuzzBlock == fuzzBlock-1 }

func (w *fuzzRunner) run(i int) {
	w.last, w.lastErr = agree.Fuzz(fuzzConfig(w.ablation(i), w.base+int64(i)*fuzzBatchSeeds, fuzzBatchSeeds, w.workers))
}

func (w *fuzzRunner) check(i int) (int, int) {
	failed, why := checkFuzzBatch(w.ablation(i), w.last, w.lastErr)
	if why != "" {
		w.out.Notes = note(w.out.Notes, "batch %d: %s", i, why)
	}
	if w.lastErr != nil {
		return fuzzBatchSeeds, failed
	}
	w.seeds, w.execs = w.seeds+w.last.Seeds, w.execs+w.last.Executions
	if w.ablation(i) {
		w.ablSeeds, w.ablExecs, w.ablFind = w.ablSeeds+w.last.Seeds, w.ablExecs+w.last.Executions, w.ablFind+len(w.last.Findings)
	}
	if !w.ablation(i) && i < fuzzSimPrefix && !w.inHist[i] {
		w.inHist[i] = true
		for r, c := range w.last.RoundHistogram {
			w.hist[r] += c
		}
	}
	return w.last.Executions, failed
}

func (w *fuzzRunner) finish() (*outcome, error) {
	// The prefix must be complete even when the run was too short for it.
	for i := 0; i < fuzzSimPrefix; i++ {
		if !w.ablation(i) && !w.inHist[i] {
			w.run(i)
			_, failed := w.check(i)
			w.out.Failed += failed
		}
	}
	sum, n := 0, 0
	for r, c := range w.hist {
		sum += r * c
		n += c
	}
	if n > 0 {
		w.out.Sim = map[string]float64{"sim_rounds_per_op": float64(sum) / float64(n)}
	}
	if w.seeds > 0 && w.ablFind > 0 {
		w.out.Layer = map[string]float64{
			"fuzz.execs_per_seed":          float64(w.execs) / float64(w.seeds),
			"fuzz.shrink_runs_per_finding": float64(w.ablExecs-w.ablSeeds) / float64(w.ablFind),
			"fuzz.findings":                float64(w.ablFind) / float64(w.ablSeeds) * fuzzBatchSeeds, // per ablation batch
		}
	}
	// Worker-count law at 1/50 scale: the report is the same for 1 and 2 workers.
	w.out.Digests = map[string]string{}
	for _, ablation := range []bool{false, true} {
		seeds := 8000
		if w.smoke {
			seeds = 400
		}
		if ablation {
			seeds /= 4
		}
		var digests [2]string
		for k, workers := range []int{1, 2} {
			rep, err := agree.Fuzz(fuzzConfig(ablation, w.base, seeds, workers))
			if err != nil {
				return nil, err
			}
			digests[k] = fuzzDigest(rep)
		}
		name := "fuzz_faithful_digest"
		if ablation {
			name = "fuzz_ablation_digest"
		}
		w.out.Digests[name] = digests[0]
		if digests[0] != digests[1] {
			w.out.Failed++
			w.out.Notes = note(w.out.Notes, "%s differs between 1 and 2 workers: %s vs %s", name, digests[0], digests[1])
		}
	}
	return &w.out, nil
}

// ---- serve ----------------------------------------------------------------

// serveRunner runs agree.Serve sessions, cycling through the nine sessions of
// the block. One batch is one session, one operation one committed command.
// The workload is open loop: commands arrive on a Poisson schedule in
// simulated time whatever the service does, so the generator is never late.
type serveRunner struct {
	block   []serveSession
	cmds    int
	last    *agree.ServeReport
	lastErr error
	ref     [][]byte             // JSON of the first report of each block position
	refRep  []*agree.ServeReport // the reports themselves
	out     outcome
}

func (w *serveRunner) warm() int { return 3 }

func (w *serveRunner) kinds() int { return len(w.block) }

func (w *serveRunner) run(i int) {
	w.last, w.lastErr = agree.Serve(w.block[i%len(w.block)].config(w.cmds))
}

func (w *serveRunner) check(i int) (int, int) {
	if why := checkServe(w.cmds, w.last, w.lastErr); why != "" {
		w.out.Notes = note(w.out.Notes, "session %d: %s", i, why)
		return w.cmds, w.cmds
	}
	if w.ref == nil {
		w.ref = make([][]byte, len(w.block))
		w.refRep = make([]*agree.ServeReport, len(w.block))
	}
	js, err := json.Marshal(w.last)
	if err != nil {
		w.out.Notes = note(w.out.Notes, "session %d: %v", i, err)
		return w.last.Commands, w.last.Commands
	}
	pos := i % len(w.block)
	switch {
	case w.ref[pos] == nil:
		w.ref[pos], w.refRep[pos] = js, w.last
	case !bytes.Equal(js, w.ref[pos]):
		// A session is a pure function of its configuration.
		w.out.Notes = note(w.out.Notes, "session %d: report differs from the first run of the same session", i)
		return w.last.Commands, w.last.Commands
	}
	return w.last.Commands, 0
}

func (w *serveRunner) finish() (*outcome, error) {
	// Complete the first block when the run was too short to reach every session.
	for pos := range w.block {
		if w.ref == nil || w.ref[pos] == nil {
			w.run(pos)
			if _, failed := w.check(pos); failed > 0 {
				w.out.Failed += failed
				return &w.out, nil
			}
		}
	}
	first := w.refRep[0]
	w.out.Sim = map[string]float64{
		"sim_rounds_per_op": float64(first.TotalRounds) / float64(first.Commands),
		"sim_commit_p50_us": first.LatencyP50 * 1e6,
		"sim_commit_p99_us": first.LatencyP99 * 1e6,
		"sim_recovery_us":   first.Recoveries[0].Time() * 1e6,
	}
	// Highest ladder rate that meets the p99 limit without a growing backlog.
	best := 0.0
	for pos, s := range w.block {
		rep := w.refRep[pos]
		if s.Seed != w.block[0].Seed || s.Rate <= best {
			continue
		}
		if rep.LatencyP99 <= serveP99Limit && rep.CommandsPerHour/3600 >= 0.99*s.Rate {
			best = s.Rate
		}
	}
	w.out.Sim["sim_max_rate_kcps"] = best / 1e3
	var d digester
	d.buf = append(d.buf, w.ref[0]...)
	w.out.Digests = map[string]string{"serve_digest": d.sum()}
	// Determinism law (two runs, JSON round trip) on a 1/50-scale session.
	if err := agree.VerifyServeDeterminism(w.block[0].config(w.cmds / 50)); err != nil {
		w.out.Failed++
		w.out.Notes = note(w.out.Notes, "determinism: %v", err)
	}
	return &w.out, nil
}
