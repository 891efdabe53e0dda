package agree

// serve.go is the service face of the reproduction: instead of one consensus
// instance per call (Run) it operates a long-running replicated log —
// pipelined consensus instances on the timed engine, fed by a workload
// generator — and reports what a client of that service observes: commit
// latency percentiles, sustained commands per simulated hour, and the
// recovery time after a leader crash.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// WorkloadSpec describes how commands arrive at the replicated log. Open
// specs (fixed, Poisson, bursty) model an external arrival stream that does
// not react to service latency; the closed spec models a finite client
// population where each client waits for its previous command to commit,
// thinks, and submits the next. Rates must be positive and finite. All
// sampling is deterministic per seed (SplitMix64), so a service run
// replays bit-identically.
type WorkloadSpec struct {
	kind      string
	rate      float64
	burstRate float64
	baseDur   float64
	burstDur  float64
	clients   int
	think     float64
	poisson   bool
	seed      int64
}

// FixedArrivals is the open-loop fixed-rate stream: one command every 1/rate
// time units.
func FixedArrivals(rate float64, seed int64) WorkloadSpec {
	return WorkloadSpec{kind: "fixed", rate: rate, seed: seed}
}

// PoissonArrivals is the open-loop Poisson stream with the given mean rate.
func PoissonArrivals(rate float64, seed int64) WorkloadSpec {
	return WorkloadSpec{kind: "poisson", rate: rate, seed: seed}
}

// BurstyArrivals is the open-loop two-phase cycle: baseDur time units of
// Poisson arrivals at baseRate, then burstDur at burstRate, repeating.
func BurstyArrivals(baseRate, burstRate, baseDur, burstDur float64, seed int64) WorkloadSpec {
	return WorkloadSpec{kind: "bursty", rate: baseRate, burstRate: burstRate,
		baseDur: baseDur, burstDur: burstDur, seed: seed}
}

// ClosedClients is the closed-loop population: clients concurrent clients,
// each thinking for think time units between its commit and its next
// command (exponentially distributed when poissonThink is set).
func ClosedClients(clients int, think float64, poissonThink bool, seed int64) WorkloadSpec {
	return WorkloadSpec{kind: "closed", clients: clients, think: think,
		poisson: poissonThink, seed: seed}
}

// IsZero reports whether the spec is unset.
func (w WorkloadSpec) IsZero() bool { return w.kind == "" }

// materialize builds fresh workload generators for one service run. Fresh
// per call: the generators are consumed by the run, and re-materializing
// from the spec is what makes repeated Serve invocations bit-identical.
func (w WorkloadSpec) materialize() (*workload.Open, *workload.Closed, error) {
	switch w.kind {
	case "fixed":
		o, err := workload.NewOpen(workload.Fixed{Rate: w.rate}, w.seed)
		return o, nil, err
	case "poisson":
		o, err := workload.NewOpen(workload.Poisson{Rate: w.rate}, w.seed)
		return o, nil, err
	case "bursty":
		o, err := workload.NewOpen(workload.Bursty(w.rate, w.burstRate, w.baseDur, w.burstDur), w.seed)
		return o, nil, err
	case "closed":
		c, err := workload.NewClosed(w.clients, w.think, w.poisson, w.seed)
		return nil, c, err
	case "":
		return nil, nil, fmt.Errorf("agree: ServeConfig needs a workload (FixedArrivals, PoissonArrivals, BurstyArrivals or ClosedClients)")
	default:
		return nil, nil, fmt.Errorf("agree: unknown workload kind %q", w.kind)
	}
}

// ServeOmissions injects omission faults mid-stream: each listed replica
// drops its whole per-round send plan with SendProb and blocks each inbound
// sender with RecvProb, sampled from pure per-(slot, replica, round) hashes
// of Seed.
type ServeOmissions struct {
	// Procs are the omission-faulty replicas (1-based ids).
	Procs []int
	// SendProb is the per-round whole-plan send-omission probability.
	SendProb float64
	// RecvProb is the per-(round, sender) receive-omission probability.
	RecvProb float64
	// Seed selects the fault sample.
	Seed int64
}

// ServeConfig configures a replicated-log service run. A run's memory is
// O(committed commands) whatever the arrival rate: commands wait in their
// arrival stream until a slot's batch takes them. Only an unbounded batch
// (BatchLimit 0) under overload makes the backlog a slot's footprint.
type ServeConfig struct {
	// N is the number of replicas (required).
	N int
	// Protocol selects the per-slot consensus algorithm: ProtocolCRW
	// (default) or ProtocolEarlyStop.
	Protocol Protocol
	// Bits is the command bit width (0 defaults to 64; a negative width is
	// an error).
	Bits int
	// RotateLeader renumbers replicas per slot so a live replica always
	// holds the coordinator role; without it a dead static coordinator
	// costs one wasted round on every subsequent slot.
	RotateLeader bool
	// Engine selects the execution engine (default EngineTimed — the
	// service's headline metrics are measured on the event clock).
	Engine EngineKind
	// Latency configures the timed engine's latency model; the zero spec
	// selects the default within-bound model (D=1, δ=0.1).
	Latency LatencySpec
	// Workload describes the command arrival process (required).
	Workload WorkloadSpec
	// MaxCommands stops the service after this many commits (the final
	// batch may overshoot). At least one of MaxCommands, Duration and
	// MaxSlots must bound the run.
	MaxCommands int
	// Duration stops the service at the first slot that would launch after
	// this simulated time.
	Duration float64
	// MaxSlots bounds the number of slots.
	MaxSlots int
	// BatchLimit caps the commands committed per slot (0 = unbounded, so a
	// slot takes every command that has arrived by its launch).
	BatchLimit int
	// NoPipeline launches each slot only after the previous one committed;
	// the default overlaps instances one round duration apart.
	NoPipeline bool
	// CrashAt schedules replica crashes: replica id -> simulated time,
	// effective at the first slot launched at or after that time.
	CrashAt map[int]float64
	// Omissions injects omission faults mid-stream; nil injects none.
	Omissions *ServeOmissions
	// Telemetry records per-slot spans and series on the service clock plus
	// the commit-latency histogram; the recording is attached to the report
	// (ServeReport.Telemetry) and deliberately excluded from its JSON form.
	Telemetry bool
}

// LeaderRecovery records one leader crash and the recovery from it.
type LeaderRecovery struct {
	// Replica is the crashed leader.
	Replica int
	// CrashTime is the scheduled crash time.
	CrashTime float64
	// Commit is the earliest commit among instances launched at or after
	// the crash.
	Commit float64
}

// Time returns the recovery time: Commit - CrashTime. With RotateLeader it
// is one round duration (the next instance starts with a live coordinator);
// without, two (the dead coordinator wastes the recovery instance's first
// round).
func (r LeaderRecovery) Time() float64 { return r.Commit - r.CrashTime }

// ServeReport is the validated outcome of a service run. It is plain data —
// integers, floats and integer-keyed maps — so encoding/json serializes it
// canonically and VerifyServeDeterminism can compare runs byte for byte.
type ServeReport struct {
	// Commands is the number of committed commands.
	Commands int
	// Slots is the number of committed log slots.
	Slots int
	// TotalRounds sums the rounds of every slot's instance.
	TotalRounds int
	// RoundsHist maps instance round counts to slot counts.
	RoundsHist map[int]int
	// LastCommit is the simulated time of the final commit.
	LastCommit float64
	// CommandsPerHour is the sustained throughput per simulated hour (3600
	// time units of the latency model).
	CommandsPerHour float64
	// LatencyP50/P99/P999 are client-observed commit-latency percentiles
	// (nearest rank); LatencyMean and LatencyMax complete the distribution.
	LatencyP50, LatencyP99, LatencyP999 float64
	LatencyMean, LatencyMax             float64
	// Recoveries lists every leader crash with its recovery, in crash-time
	// order.
	Recoveries []LeaderRecovery `json:",omitempty"`
	// Crashed maps dead replicas to their scheduled crash time.
	Crashed map[int]float64 `json:",omitempty"`
	// Omissive maps omission-faulty replicas to their omissive-round count.
	Omissive map[int]int `json:",omitempty"`
	// Counters and Ledger aggregate communication over all slots; the
	// cross-slot conservation identity is audited before Serve returns.
	Counters metrics.Counters
	Ledger   metrics.Ledger
	// EnginesBuilt and EngineReuses account the service's engine cache.
	EnginesBuilt int
	EngineReuses int
	// telemetry is the run's recording when ServeConfig.Telemetry was set.
	// It is unexported — and therefore invisible to encoding/json — so the
	// report's byte-identical serialization law is untouched; access it via
	// the Telemetry method.
	telemetry *Telemetry
}

// Telemetry returns the service run's span and timeline recording, or nil
// when ServeConfig.Telemetry was not set.
func (r *ServeReport) Telemetry() *Telemetry { return r.telemetry }

// Serve operates the replicated-log service described by the config until
// one of its stop conditions and returns the service report. Every slot's
// instance passes the law audit (conservation, ledger consistency, fault
// budget), per-slot agreement is validated, and the cross-slot aggregate is
// conservation-checked — a silent safety violation inside the stream
// surfaces as an error, never as a report.
func Serve(cfg ServeConfig) (*ServeReport, error) {
	var proto smr.Protocol
	switch cfg.Protocol {
	case "", ProtocolCRW:
		proto = smr.ProtocolCRW
	case ProtocolEarlyStop:
		proto = smr.ProtocolEarlyStop
	default:
		return nil, fmt.Errorf("agree: the service supports %q and %q, not %q", ProtocolCRW, ProtocolEarlyStop, cfg.Protocol)
	}
	if err := cfg.Latency.validate(); err != nil {
		return nil, err
	}
	open, closed, err := cfg.Workload.materialize()
	if err != nil {
		return nil, err
	}
	kind := harness.Kind(cfg.Engine)
	if cfg.Engine == "" {
		kind = harness.KindTimed
	}
	opts := smr.ServeOptions{
		N:            cfg.N,
		Protocol:     proto,
		Bits:         cfg.Bits,
		RotateLeader: cfg.RotateLeader,
		Engine:       kind,
		Latency:      cfg.Latency.model(cfg.Bits),
		Arrivals:     open,
		Clients:      closed,
		MaxCommands:  cfg.MaxCommands,
		Duration:     cfg.Duration,
		MaxSlots:     cfg.MaxSlots,
		BatchLimit:   cfg.BatchLimit,
		NoPipeline:   cfg.NoPipeline,
	}
	if len(cfg.CrashAt) > 0 {
		opts.CrashAt = make(map[sim.ProcID]float64, len(cfg.CrashAt))
		for id, t := range cfg.CrashAt {
			opts.CrashAt[sim.ProcID(id)] = t
		}
	}
	if om := cfg.Omissions; om != nil {
		procs := make([]sim.ProcID, len(om.Procs))
		for i, p := range om.Procs {
			procs[i] = sim.ProcID(p)
		}
		opts.Omit = &smr.OmitOptions{Procs: procs, SendProb: om.SendProb, RecvProb: om.RecvProb, Seed: om.Seed}
	}
	var rec *telemetry.Recorder
	if cfg.Telemetry {
		rec = telemetry.New()
		opts.Telemetry = rec
	}
	res, err := smr.Serve(opts)
	if err != nil {
		return nil, err
	}
	rep := &ServeReport{
		Commands:        res.Commands,
		Slots:           res.Slots,
		TotalRounds:     res.TotalRounds,
		RoundsHist:      res.RoundsHist,
		LastCommit:      res.LastCommit,
		CommandsPerHour: res.PerHour(),
		LatencyP50:      res.Latency.P50,
		LatencyP99:      res.Latency.P99,
		LatencyP999:     res.Latency.P999,
		LatencyMean:     res.Latency.Mean,
		LatencyMax:      res.Latency.Max,
		Counters:        res.Counters,
		Ledger:          res.Ledger,
		EnginesBuilt:    res.EnginesBuilt,
		EngineReuses:    res.EngineReuses,
	}
	for _, r := range res.Recoveries {
		rep.Recoveries = append(rep.Recoveries, LeaderRecovery{
			Replica: int(r.Replica), CrashTime: r.CrashTime, Commit: r.Commit})
	}
	if len(res.Crashed) > 0 {
		rep.Crashed = make(map[int]float64, len(res.Crashed))
		for id, t := range res.Crashed {
			rep.Crashed[int(id)] = t
		}
	}
	if len(res.Omissive) > 0 {
		rep.Omissive = make(map[int]int, len(res.Omissive))
		for id, c := range res.Omissive {
			rep.Omissive[int(id)] = c
		}
	}
	if rec != nil {
		rep.telemetry = &Telemetry{rec: rec}
	}
	return rep, nil
}

// VerifyServeDeterminism checks the determinism law for a service
// configuration: two independent Serve runs must serialize to byte-identical
// reports, and the serialized report must survive a JSON round-trip
// byte-identically — the same law VerifyDeterminism pins for single runs,
// extended to the full service stream (workload sampling, fault injection
// and latency jitter included).
func VerifyServeDeterminism(cfg ServeConfig) error {
	first, err := Serve(cfg)
	if err != nil {
		return err
	}
	second, err := Serve(cfg)
	if err != nil {
		return fmt.Errorf("agree: service re-run failed: %w", err)
	}
	ja, err := json.Marshal(first)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(second)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return &laws.Violation{Law: laws.LawDeterminism,
			Detail: fmt.Sprintf("two service runs of one configuration serialized differently:\n%s\nvs\n%s", ja, jb)}
	}
	var rt ServeReport
	if err := json.Unmarshal(ja, &rt); err != nil {
		return &laws.Violation{Law: laws.LawDeterminism,
			Detail: fmt.Sprintf("serialized service report does not deserialize: %v", err)}
	}
	jrt, err := json.Marshal(&rt)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jrt) {
		return &laws.Violation{Law: laws.LawDeterminism,
			Detail: fmt.Sprintf("service report changed across a JSON round-trip:\n%s\nvs\n%s", ja, jrt)}
	}
	if cfg.Telemetry {
		if a, b := first.Telemetry().MetricsJSON(), second.Telemetry().MetricsJSON(); !bytes.Equal(a, b) {
			return &laws.Violation{Law: laws.LawDeterminism,
				Detail: fmt.Sprintf("two service runs exported different metrics timelines:\n%s\nvs\n%s", a, b)}
		}
		if a, b := first.Telemetry().ChromeTrace(), second.Telemetry().ChromeTrace(); !bytes.Equal(a, b) {
			return &laws.Violation{Law: laws.LawDeterminism,
				Detail: fmt.Sprintf("two service runs exported different Chrome traces:\n%s\nvs\n%s", a, b)}
		}
	}
	return nil
}
