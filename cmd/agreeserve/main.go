// Command agreeserve operates the replicated-log service: pipelined
// consensus instances on the timed engine, fed by a workload generator, with
// optional mid-stream crash and omission injection. It prints the
// client-observed service metrics — commit-latency percentiles, sustained
// commands per simulated hour, and leader-recovery times.
//
// Examples:
//
//	agreeserve -n 8 -workload poisson -rate 2000 -max-commands 10000
//	agreeserve -n 8 -lat-profile 1g -workload poisson -rate 500000 -max-commands 20000
//	agreeserve -n 4 -workload closed -clients 16 -think 0.5 -max-commands 5000
//	agreeserve -n 4 -workload bursty -rate 10 -burst-rate 500 -base-dur 20 -burst-dur 2 -duration 200
//	agreeserve -n 4 -crash 1@5.5 -max-commands 1000          # leader crash mid-stream
//	agreeserve -n 4 -no-rotate -crash 1@5.5 -max-commands 1000
//	agreeserve -n 5 -omit-procs 4 -omit-send 0.2 -max-commands 1000
//	agreeserve -n 6 -workload poisson -rate 5 -max-commands 500 -verify  # determinism law
//	agreeserve -n 8 -workload poisson -rate 100 -max-commands 1000 -json
package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/agree"
	"repro/internal/cli"
)

func main() { os.Exit(command(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func command(stdout, stderr io.Writer) *cli.Cmd {
	c := cli.New("agreeserve", stdout, stderr)
	var (
		n        = c.Int("n", 4, "number of replicas")
		protocol = c.String("protocol", "crw", "per-slot protocol: crw, earlystop")
		engine   = c.String("engine", "timed", "engine kind (see agreerun -list-engines)")
		bits     = c.Int("bits", 64, "command bit width b")
		noRotate = c.Bool("no-rotate", false, "disable per-slot leader rotation (a dead static coordinator then wastes a round per slot)")

		wl       = c.String("workload", "fixed", "workload: fixed, poisson, bursty, closed")
		rate     = c.Float64("rate", 10, "open-loop arrival rate (base rate for bursty)")
		burst    = c.Float64("burst-rate", 0, "bursty: burst-phase arrival rate")
		baseDur  = c.Float64("base-dur", 10, "bursty: base-phase duration")
		burstDur = c.Float64("burst-dur", 1, "bursty: burst-phase duration")
		clients  = c.Int("clients", 8, "closed-loop: number of clients")
		think    = c.Float64("think", 0, "closed-loop: think time between commit and next command")
		thinkExp = c.Bool("think-poisson", false, "closed-loop: exponential think times instead of fixed")
		wlSeed   = c.Int64("workload-seed", 1, "workload sampling seed")

		maxCmds  = c.Int("max-commands", 0, "stop after this many committed commands")
		duration = c.Float64("duration", 0, "stop launching slots after this simulated time")
		maxSlots = c.Int("max-slots", 0, "stop after this many slots")
		batch    = c.Int("batch", 0, "max commands per slot (0 = unbounded)")
		noPipe   = c.Bool("no-pipeline", false, "launch each slot only after the previous one committed")

		crash     = c.String("crash", "", "crash schedule: comma-separated id@time, e.g. 1@5.5,3@20")
		omitProcs = c.String("omit-procs", "", "omission-faulty replicas, comma-separated ids")
		omitSend  = c.Float64("omit-send", 0, "per-round whole-plan send-omission probability")
		omitRecv  = c.Float64("omit-recv", 0, "per-(round, sender) receive-omission probability")
		omitSeed  = c.Int64("omit-seed", 1, "omission sampling seed")

		lat = c.Latency("")

		asJSON     = c.Bool("json", false, "print the report as canonical JSON")
		verify     = c.Bool("verify", false, "check the determinism law (two byte-identical runs) before reporting")
		metricsOut = c.String("metrics-out", "", `write the per-slot latency/throughput timeline JSON to this file ("-" = stdout) and print the latency summary table`)
	)
	c.Profiles()
	c.Telemetry("")
	c.Main = func() int {
		latency, err := lat.Spec()
		if err != nil {
			return c.Fail(err)
		}

		var workload agree.WorkloadSpec
		switch *wl {
		case "fixed":
			workload = agree.FixedArrivals(*rate, *wlSeed)
		case "poisson":
			workload = agree.PoissonArrivals(*rate, *wlSeed)
		case "bursty":
			workload = agree.BurstyArrivals(*rate, *burst, *baseDur, *burstDur, *wlSeed)
		case "closed":
			workload = agree.ClosedClients(*clients, *think, *thinkExp, *wlSeed)
		default:
			return c.Fail(fmt.Errorf("unknown workload %q (fixed, poisson, bursty, closed)", *wl))
		}

		crashAt, err := parseCrashSchedule(*crash)
		if err != nil {
			return c.Fail(err)
		}

		cfg := agree.ServeConfig{
			N:            *n,
			Protocol:     agree.Protocol(*protocol),
			Bits:         *bits,
			RotateLeader: !*noRotate,
			Engine:       agree.EngineKind(*engine),
			Latency:      latency,
			Workload:     workload,
			MaxCommands:  *maxCmds,
			Duration:     *duration,
			MaxSlots:     *maxSlots,
			BatchLimit:   *batch,
			NoPipeline:   *noPipe,
			CrashAt:      crashAt,
			Telemetry:    c.WantsTelemetry() || *metricsOut != "",
		}
		if *omitProcs != "" {
			procs, err := parseIDs(*omitProcs)
			if err != nil {
				return c.Fail(err)
			}
			cfg.Omissions = &agree.ServeOmissions{Procs: procs, SendProb: *omitSend, RecvProb: *omitRecv, Seed: *omitSeed}
		}

		if *verify {
			if err := agree.VerifyServeDeterminism(cfg); err != nil {
				return c.Fail(err)
			}
		}
		rep, err := agree.Serve(cfg)
		if err != nil {
			return c.Fail(err)
		}

		tel := rep.Telemetry()
		if err := c.WriteTelemetry(tel); err != nil {
			return c.Fail(err)
		}
		if err := c.WriteFile(*metricsOut, tel.SlotTimelineJSON()); err != nil {
			return c.Fail(err)
		}

		if *asJSON {
			out, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return c.Fail(err)
			}
			fmt.Fprintln(stdout, string(out))
			return 0
		}

		fmt.Fprintf(stdout, "service     %s on %s engine, n=%d, rotate=%v\n", cfg.Protocol, cmp.Or(*engine, "timed"), *n, cfg.RotateLeader)
		fmt.Fprintf(stdout, "workload    %s\n", *wl)
		fmt.Fprintf(stdout, "committed   %d commands in %d slots (%d rounds, histogram %v)\n",
			rep.Commands, rep.Slots, rep.TotalRounds, rep.RoundsHist)
		fmt.Fprintf(stdout, "throughput  %.0f commands/simulated-hour (last commit at t=%g)\n", rep.CommandsPerHour, rep.LastCommit)
		fmt.Fprintf(stdout, "latency     p50=%g p99=%g p999=%g mean=%g max=%g\n",
			rep.LatencyP50, rep.LatencyP99, rep.LatencyP999, rep.LatencyMean, rep.LatencyMax)
		for _, id := range slices.Sorted(maps.Keys(rep.Crashed)) {
			fmt.Fprintf(stdout, "crash       replica %d at t=%g\n", id, rep.Crashed[id])
		}
		for _, r := range rep.Recoveries {
			fmt.Fprintf(stdout, "recovery    leader %d crashed at t=%g, next commit at t=%g: %g (%s)\n",
				r.Replica, r.CrashTime, r.Commit, r.Time(), rotationNote(cfg.RotateLeader))
		}
		if len(rep.Omissive) > 0 {
			fmt.Fprintf(stdout, "omissive    %v (rounds with injected omissions per replica)\n", rep.Omissive)
		}
		fmt.Fprintf(stdout, "traffic     %s\n", rep.Counters.String())
		fmt.Fprintf(stdout, "ledger      %s (cross-slot conservation audited)\n", rep.Ledger.String())
		fmt.Fprintf(stdout, "engines     %d built, %d reuse hits\n", rep.EnginesBuilt, rep.EngineReuses)
		if *verify {
			fmt.Fprintln(stdout, "determinism byte-identical across two runs (law verified)")
		}
		if *metricsOut != "" && *metricsOut != "-" {
			fmt.Fprintln(stdout, "\ncommit-latency distribution")
			fmt.Fprint(stdout, tel.LatencyTable())
		}
		return 0
	}
	return c
}

// parseCrashSchedule parses "1@5.5,3@20" into a crash map.
func parseCrashSchedule(s string) (map[int]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[int]float64{}
	for _, part := range strings.Split(s, ",") {
		idStr, tStr, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("crash entry %q is not id@time", part)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil {
			return nil, fmt.Errorf("crash entry %q: bad replica id: %v", part, err)
		}
		t, err := strconv.ParseFloat(tStr, 64)
		if err != nil {
			return nil, fmt.Errorf("crash entry %q: bad time: %v", part, err)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("replica %d crashes twice in %q", id, s)
		}
		out[id] = t
	}
	return out, nil
}

// parseIDs parses a comma-separated id list.
func parseIDs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad replica id %q: %v", part, err)
		}
		out = append(out, id)
	}
	return out, nil
}

// rotationNote labels a recovery with the bound it should match.
func rotationNote(rotate bool) string {
	if rotate {
		return "one-round bound with rotation"
	}
	return "two rounds: static coordinator dead"
}
