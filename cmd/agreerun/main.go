// Command agreerun executes a single consensus instance and prints its
// transcript and verdict.
//
// Examples:
//
//	agreerun -n 6                           # failure-free CRW: one round
//	agreerun -n 6 -f 2                      # kill coordinators p1, p2
//	agreerun -n 6 -f 2 -deliver -prefix 1   # dying coordinators deliver data + 1 commit
//	agreerun -n 6 -protocol earlystop -f 1  # classic baseline
//	agreerun -n 6 -random -seed 7 -prob 0.3 # randomized fault injection
//	agreerun -n 6 -engine lockstep          # goroutine runtime
//	agreerun -n 6 -f 2 -crosscheck          # validate the run on every engine
//	agreerun -n 8 -fsweep 7 -workers 4      # sweep f=0..7 across 4 workers
//	agreerun -list-engines                  # discover engines + capabilities
//	agreerun -n 6 -engine timed -f 2 -lat-profile 1g     # gigabit LAN latencies
//	agreerun -n 6 -engine timed -lat-d 1 -lat-delta 0.2  # fixed worst-case D/δ
//	agreerun -n 8 -engine timed -lat-d 1 -lat-delta 0.1 -lat-floor 0.5 -lat-spread 2 \
//	         -lat-seed 7                    # jitter past the bound: timing faults
package main

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/agree"
	"repro/internal/cli"
)

func main() { os.Exit(command(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func command(stdout, stderr io.Writer) *cli.Cmd {
	c := cli.New("agreerun", stdout, stderr)
	var (
		n        = c.Int("n", 5, "number of processes")
		tt       = c.Int("t", 0, "resilience bound for classic baselines (default n-1)")
		protocol = c.String("protocol", "crw", "protocol: crw, earlystop, floodset")
		engine   = c.String("engine", "deterministic", "engine kind (see -list-engines)")
		listEng  = c.Bool("list-engines", false, "list registered engines with their capabilities and exit")
		f        = c.Int("f", 0, "crash the coordinators of the first f rounds")
		deliver  = c.Bool("deliver", false, "dying coordinators complete their data step")
		prefix   = c.Int("prefix", 0, "control prefix delivered by dying coordinators (-1 = all)")
		random   = c.Bool("random", false, "use the randomized adversary instead of the coordinator killer")
		seed     = c.Int64("seed", 1, "seed for -random")
		prob     = c.Float64("prob", 0.2, "per-round crash probability for -random")
		simulate = c.Bool("simulate", false, "run CRW through the Section 2.2 classic-model simulation")
		bits     = c.Int("bits", 64, "proposal bit width b")
		quiet    = c.Bool("quiet", false, "suppress the transcript")
		diag     = c.Bool("diagram", false, "render a space-time diagram instead of the raw transcript")
		crosschk = c.Bool("crosscheck", false, "re-run on every other registered engine and diff the outcomes")
		workers  = c.Int("workers", 1, "worker-pool size for -fsweep (0 = GOMAXPROCS)")
		fsweep   = c.Int("fsweep", -1, "sweep coordinator crashes f=0..fsweep and print one row per f (ignores the single-run fault flags)")
		lat      = c.Latency("timed engine: ")
	)
	c.Profiles()
	c.Telemetry("")
	c.Main = func() int {
		if *listEng {
			fmt.Fprintf(stdout, "%-15s %-6s %-14s %-9s %-6s\n", "engine", "trace", "deterministic", "reusable", "timed")
			for _, e := range agree.Engines() {
				fmt.Fprintf(stdout, "%-15s %-6v %-14v %-9v %-6v\n", e.Kind, e.Trace, e.Deterministic, e.Reusable, e.Timed)
			}
			return 0
		}
		latency, err := lat.Spec()
		if err = errors.Join(err, c.AtLeast(0, "t", "workers")); err != nil {
			return c.Fail(err)
		}
		cfg := agree.Config{
			N:                 *n,
			T:                 *tt,
			Protocol:          agree.Protocol(*protocol),
			Engine:            agree.EngineKind(*engine),
			Bits:              *bits,
			Latency:           latency,
			SimulateOnClassic: *simulate,
		}
		if *fsweep >= 0 {
			if *random || *f > 0 || *deliver || *diag {
				return c.Fail(errors.New("-fsweep always sweeps silent coordinator crashes; it cannot be combined with -random/-f/-deliver/-diagram"))
			}
			if c.WantsTelemetry() {
				return c.Fail(errors.New("-telemetry-out/-chrome-trace export one run's timeline; they cannot be combined with -fsweep"))
			}
			if runSweep(stdout, cfg, *fsweep, *workers, *crosschk) {
				return 2
			}
			return 0
		}

		switch {
		case *random:
			cfg.Faults = agree.RandomFaults(*seed, *prob, *n-1)
		case *f > 0 && *deliver:
			cfg.Faults = agree.CoordinatorCrashesDelivering(*f, *prefix)
		case *f > 0:
			cfg.Faults = agree.CoordinatorCrashes(*f)
		}
		canTrace := engineHasTrace(cfg.Engine)
		cfg.Trace = !*quiet && canTrace
		cfg.Diagram = *diag && canTrace
		cfg.Telemetry = c.WantsTelemetry()
		item := agree.Sweep([]agree.Config{cfg}, agree.SweepOptions{Workers: 1, CrossCheck: *crosschk}).Items[0]
		if item.Err != nil {
			return c.Fail(item.Err)
		}
		rep := item.Report
		if err := c.WriteTelemetry(rep.Telemetry); err != nil {
			return c.Fail(err)
		}
		switch {
		case rep.Diagram != "":
			fmt.Fprintln(stdout, rep.Diagram)
		case rep.Transcript != "" && !*quiet:
			fmt.Fprintln(stdout, rep.Transcript)
		}
		fmt.Fprintf(stdout, "protocol    %s (%s engine)\n", cfg.Protocol, cfg.Engine)
		fmt.Fprintf(stdout, "processes   n=%d\n", *n)
		fmt.Fprintf(stdout, "faults      f=%d %v\n", rep.Faults(), slices.Sorted(maps.Keys(rep.Crashed)))
		fmt.Fprintf(stdout, "rounds      %d (last decision at round %d)\n", rep.MacroRounds, rep.MaxDecideRound())
		fmt.Fprintf(stdout, "decisions   %v\n", rep.Decisions)
		fmt.Fprintf(stdout, "traffic     %s\n", rep.Counters.String())
		fmt.Fprintf(stdout, "ledger      %s (conservation audited)\n", rep.Ledger.String())
		if rep.SimTime > 0 {
			fmt.Fprintf(stdout, "simtime     %g (measured on the event clock)\n", rep.SimTime)
		}
		if len(item.CrossChecked) > 0 {
			fmt.Fprintf(stdout, "crosscheck  consistent on %v\n", item.CrossChecked)
		} else if *crosschk {
			fmt.Fprintln(stdout, "crosscheck  skipped (order-sensitive fault spec)")
		}
		if rep.ConsensusErr != nil {
			fmt.Fprintf(stdout, "VERDICT     VIOLATION: %v\n", rep.ConsensusErr)
			return 2
		}
		fmt.Fprintln(stdout, "VERDICT     uniform consensus holds")
		return 0
	}
	return c
}

// engineHasTrace consults the live registry (the same source -list-engines
// prints) for the trace capability, so the default transcript degrades
// gracefully for ANY registered engine without it — not just the ones this
// binary happens to know by name. Unknown kinds report false; the run then
// fails with the registry's own "unknown engine" error.
func engineHasTrace(kind agree.EngineKind) bool {
	for _, e := range agree.Engines() {
		if e.Kind == kind {
			return e.Trace
		}
	}
	return false
}

// runSweep executes the -fsweep mode: coordinator-killer scenarios f=0..max
// of the base configuration as one parallel sweep, one table row per fault
// count. It reports whether any row errored or violated consensus.
func runSweep(w io.Writer, base agree.Config, max, workers int, crosscheck bool) bool {
	configs := make([]agree.Config, 0, max+1)
	for f := 0; f <= max; f++ {
		cfg := base
		cfg.Faults = agree.CoordinatorCrashes(f)
		configs = append(configs, cfg)
	}
	sr := agree.Sweep(configs, agree.SweepOptions{Workers: workers, CrossCheck: crosscheck})
	fmt.Fprintf(w, "sweep: %s on n=%d, f=0..%d (%d workers requested)\n\n", base.Protocol, base.N, max, workers)
	fmt.Fprintf(w, "%-4s %-7s %-9s %-10s %-9s\n", "f", "rounds", "messages", "crosscheck", "verdict")
	failed := false
	for i, item := range sr.Items {
		if item.Err != nil {
			fmt.Fprintf(w, "%-4d %v\n", i, item.Err)
			failed = true
			continue
		}
		verdict := "ok"
		if item.Report.ConsensusErr != nil {
			verdict = "VIOLATION"
			failed = true
		}
		xc := "-"
		if len(item.CrossChecked) > 0 {
			xc = "ok"
		}
		fmt.Fprintf(w, "%-4d %-7d %-9d %-10s %-9s\n", item.Report.Faults(), item.Report.MaxDecideRound(),
			item.Report.Counters.TotalMsgs(), xc, verdict)
	}
	agg := sr.Aggregate
	fmt.Fprintf(w, "\naggregate: %d configs, %d errors, %d violations, rounds histogram %v, %s\n",
		agg.Configs, agg.Errored, agg.Violations, agg.RoundHistogram, agg.Counters.String())
	fmt.Fprintf(w, "engine pool: %d built, %d reuse hits (reusable engines rewind between jobs)\n",
		agg.EnginesBuilt, agg.EngineReuses)
	return failed
}
