package main

// gen.go is the benchmark's input generator. The seed drives only this file:
// crash plans, proposals, the fuzz base seed and the arrival seeds. The
// program under test receives the generated inputs and never the seed itself.

import (
	"repro/agree"
	"repro/internal/adversary"
	"repro/internal/consensus/earlystop"
	"repro/internal/consensus/floodset"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/sim"
	"repro/internal/timed"
)

// rng is SplitMix64: tiny, seedable, and independent of math/rand's stream
// (whose values may change between Go releases).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// spec is one configuration of the sweep list L in engine-neutral form: it
// converts to an agree.Config for the public path and to raw layer inputs
// (processes, adversary, harness job) for the traced ladder.
type spec struct {
	Proto     agree.Protocol
	N, T      int
	F         int                     // coordinator crashes when Plans is nil
	Plans     map[int]agree.CrashPlan // scripted crashes (nil: CoordinatorCrashes(F))
	Proposals []int64
}

// sweepLatency is the in-bound jitter model of sweep_timed, in both forms.
var (
	sweepLatencySpec  = agree.JitterLatency(7, 1, 0.1, 0.1, 0.85)
	sweepLatencyModel = timed.Jitter{D: 1, Delta: 0.1, Floor: 0.1, Spread: 0.85, Seed: 7}
)

// slotsNF lists the (n, f) slots shared by the worst-case and the scripted
// CRW configurations of L.
func slotsNF() [][2]int {
	var out [][2]int
	for f := 0; f <= 2; f++ {
		out = append(out, [2]int{8, f})
	}
	for f := 0; f <= 8; f++ {
		out = append(out, [2]int{32, f})
	}
	for f := 0; f <= 16; f += 2 {
		out = append(out, [2]int{64, f})
	}
	return out
}

// genProposals draws n proposals in [1000, 1e6).
func genProposals(r *rng, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(1000 + r.intn(999000))
	}
	return out
}

// genPlans draws k scripted crashes on distinct processes of an n-process
// system: a random round <= k+1 and either a data-step crash (random escaped
// subset, no control) or a control-step crash (all data, random prefix).
func genPlans(r *rng, n, k int) map[int]agree.CrashPlan {
	plans := make(map[int]agree.CrashPlan, k)
	for len(plans) < k {
		p := 1 + r.intn(n)
		if _, dup := plans[p]; dup {
			continue
		}
		cp := agree.CrashPlan{Round: 1 + r.intn(k+1)}
		if r.intn(2) == 1 {
			cp.DeliverAllData = true
			cp.CtrlPrefix = r.intn(n)
		} else {
			cp.DataMask = make([]bool, n)
			for i := range cp.DataMask {
				cp.DataMask[i] = r.intn(2) == 1
			}
		}
		plans[p] = cp
	}
	return plans
}

// genL builds the 48-configuration sweep list: 21 CRW worst-case coordinator
// crash schedules, 21 CRW scripted schedules at the same (n, f) slots, and 6
// classic baselines.
func genL(seed int64) []spec {
	r := &rng{s: uint64(seed)}
	var L []spec
	for _, nf := range slotsNF() {
		L = append(L, spec{Proto: agree.ProtocolCRW, N: nf[0], F: nf[1], Proposals: genProposals(r, nf[0])})
	}
	for _, nf := range slotsNF() {
		L = append(L, spec{Proto: agree.ProtocolCRW, N: nf[0],
			Plans: genPlans(r, nf[0], nf[1]), Proposals: genProposals(r, nf[0])})
	}
	for _, proto := range []agree.Protocol{agree.ProtocolEarlyStop, agree.ProtocolFloodSet} {
		for _, f := range []int{0, 2, 4} {
			L = append(L, spec{Proto: proto, N: 16, T: 8, F: f, Proposals: genProposals(r, 16)})
		}
	}
	return L
}

// c32 is the canonical single operation of the layer ledger: CRW, n=32, four
// coordinator crashes, default proposals (ROADMAP's ledger workload).
func c32() spec {
	props := make([]int64, 32)
	for i := range props {
		props[i] = int64(100 + i)
	}
	return spec{Proto: agree.ProtocolCRW, N: 32, F: 4, Proposals: props}
}

// scaleSpec is the scaling-series operation at size n: CRW, f = n/8.
func scaleSpec(n int) spec {
	s := c32()
	s.N, s.F = n, n/8
	s.Proposals = make([]int64, n)
	for i := range s.Proposals {
		s.Proposals[i] = int64(100 + i)
	}
	return s
}

// config is the public form of the spec on one engine.
func (s spec) config(engine agree.EngineKind) agree.Config {
	cfg := agree.Config{N: s.N, T: s.T, Protocol: s.Proto, Engine: engine, Proposals: s.Proposals}
	if s.Plans != nil {
		cfg.Faults = agree.ScriptedFaults(s.Plans)
	} else {
		cfg.Faults = agree.CoordinatorCrashes(s.F)
	}
	if engine == agree.EngineTimed {
		cfg.Latency = sweepLatencySpec
	}
	return cfg
}

// configs converts a spec list.
func configs(L []spec, engine agree.EngineKind) []agree.Config {
	out := make([]agree.Config, len(L))
	for i, s := range L {
		out[i] = s.config(engine)
	}
	return out
}

// values returns the proposals as engine values.
func (s spec) values() []sim.Value {
	out := make([]sim.Value, len(s.Proposals))
	for i, v := range s.Proposals {
		out[i] = sim.Value(v)
	}
	return out
}

// build constructs what agree.Run constructs per run below the public API:
// the process set and the adversary. It is the core.build rung of the ladder.
func (s spec) build(props []sim.Value) ([]sim.Process, sim.Adversary) {
	var procs []sim.Process
	switch s.Proto {
	case agree.ProtocolEarlyStop:
		procs = earlystop.NewSystem(props, s.T, 0)
	case agree.ProtocolFloodSet:
		procs = floodset.NewSystem(props, s.T, 0)
	default:
		procs = core.NewSystem(props, core.Options{})
	}
	if s.Plans == nil {
		return procs, adversary.CoordinatorKiller{F: s.F}
	}
	script := make(map[sim.ProcID]adversary.CrashPlan, len(s.Plans))
	for p, cp := range s.Plans {
		script[sim.ProcID(p)] = adversary.CrashPlan{Round: sim.Round(cp.Round),
			DeliverAllData: cp.DeliverAllData, DataMask: cp.DataMask, CtrlPrefix: cp.CtrlPrefix}
	}
	return procs, adversary.NewScript(script)
}

// model returns the engine model and horizon agree.Run uses for the protocol.
func (s spec) model() (sim.Model, sim.Round) {
	if s.Proto == agree.ProtocolCRW {
		return sim.ModelExtended, sim.Round(s.N + 2)
	}
	return sim.ModelClassic, sim.Round(s.T + 2)
}

// job assembles the harness job of the spec for an engine kind.
func (s spec) job(kind harness.Kind, procs []sim.Process, adv sim.Adversary) harness.Job {
	model, horizon := s.model()
	job := harness.Job{Model: model, Horizon: horizon, Procs: procs, Adv: adv}
	if kind == harness.KindTimed {
		job.Latency = sweepLatencyModel
	}
	return job
}

// budget is the fault budget agree.Run audits the spec against.
func (s spec) budget() laws.Budget {
	if s.Plans != nil {
		return laws.Budget{Crashes: len(s.Plans)}
	}
	return laws.Budget{Crashes: s.F}
}

// Service workload constants. ISSUE 11 sized a session at 2M commands with
// the leader crash at t=1.0; the contract's per-run time cap scales both by
// the common factor 1/20 (a session is then ~70 ms of host time).
const (
	serveN        = 8
	serveCmds     = 100_000
	serveCrashAt  = 0.05
	serveBatchLim = 32
	serveP99Limit = 300e-6 // latency limit of sim_max_rate_kcps, simulated seconds
)

// serveSession is one session of the serve_crash block.
type serveSession struct {
	Rate float64
	Seed int64
}

// genServeBlock returns the nine sessions of one serve_crash block: five at
// 200k commands per simulated second with arrival seeds s..s+4, then the rate
// ladder. Session 0 is the one whose latency percentiles are reported.
func genServeBlock(seed int64) []serveSession {
	var out []serveSession
	for i := int64(0); i < 5; i++ {
		out = append(out, serveSession{Rate: 200e3, Seed: seed + i})
	}
	for _, rate := range []float64{100e3, 250e3, 270e3, 300e3} {
		out = append(out, serveSession{Rate: rate, Seed: seed})
	}
	return out
}

// config is the public form of a session with cmds commands; the crash time
// scales with the session length so the leader always dies mid-stream.
func (s serveSession) config(cmds int) agree.ServeConfig {
	return agree.ServeConfig{
		N: serveN, RotateLeader: true,
		Latency:     agree.ProfileLatency("1g"),
		Workload:    agree.PoissonArrivals(s.Rate, s.Seed),
		BatchLimit:  serveBatchLim,
		CrashAt:     map[int]float64{1: serveCrashAt * float64(cmds) / serveCmds},
		MaxCommands: cmds,
	}
}

// Fuzz workload constants: campaign (a) is the faithful algorithm, (b) the
// commit-as-data ablation whose findings exercise replay and the shrinker.
const (
	fuzzBatchSeeds = 1000
	fuzzBlock      = 5 // four (a) batches, then one (b) batch
)

// genFuzzBase derives the campaigns' base seed.
func genFuzzBase(seed int64) int64 {
	r := &rng{s: uint64(seed) ^ 0xf00d}
	return int64(r.next()>>24) + 1 // positive, room for billions of seeds
}

// fuzzConfig returns the campaign of batch i starting at the given seed.
func fuzzConfig(ablation bool, first int64, seeds, workers int) agree.FuzzConfig {
	if ablation {
		return agree.FuzzConfig{N: 8, CommitAsData: true, Shrink: true, Laws: true,
			Seeds: seeds, Seed: first, Workers: workers}
	}
	return agree.FuzzConfig{N: 16, T: 5, CrashProb: 0.25, Laws: true,
		Seeds: seeds, Seed: first, Workers: workers}
}
