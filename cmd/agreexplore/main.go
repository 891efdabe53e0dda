// Command agreexplore exhaustively model-checks the paper's algorithm (or
// one of its ablations) for a small system: it enumerates every crash
// schedule and delivery truncation the extended model allows, validates
// uniform consensus and the f+1 decision bound on each execution, and prints
// either the exploration statistics or a minimal counterexample script.
//
// Examples:
//
//	agreexplore -n 4 -t 2                 # faithful algorithm: expect 0 violations
//	agreexplore -n 4 -t 1 -order asc      # ablation: f+1 bound violated
//	agreexplore -n 3 -t 1 -commit-as-data # ablation: uniform agreement violated
//	agreexplore -n 4 -t 2 -worst          # find + replay the slowest execution
//	agreexplore -n 3 -t 1 -commit-as-data -replay 1,0,0,0,1   # trace a counterexample
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	os.Exit(run())
}

// run holds the real main so deferred cleanups (CPU profile flush) execute
// before the process exits.
func run() int {
	var (
		n            = flag.Int("n", 4, "number of processes (keep small: the space is exhaustive)")
		tt           = flag.Int("t", 2, "crash budget")
		order        = flag.String("order", "desc", "commit order: desc (faithful) or asc (ablation)")
		commitAsData = flag.Bool("commit-as-data", false, "fold the commit into the data step (ablation)")
		omitBudget   = flag.Int("omit-budget", 0, "additionally enumerate up to this many omission events per execution (ablation: the reliable-channel assumption falls; the f+1 bound is not checked)")
		budget       = flag.Int("budget", 50_000_000, "maximum executions to explore")
		maxCE        = flag.Int("max-counterexamples", 3, "stop after this many violations")
		worst        = flag.Bool("worst", false, "search for the slowest execution and replay it with a trace")
		replay       = flag.String("replay", "", "comma-separated choice script to replay with a trace")
		parallel     = flag.Bool("parallel", false, "shard the exploration across all CPUs")
		workers      = flag.Int("workers", 0, "worker-pool size with -parallel (0 = GOMAXPROCS)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "agreexplore:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "agreexplore:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	opts := core.Options{CommitAsData: *commitAsData}
	switch *order {
	case "desc":
	case "asc":
		opts.Order = core.OrderAscending
	default:
		fmt.Fprintf(os.Stderr, "agreexplore: unknown order %q\n", *order)
		return 1
	}

	factory := func(ch interface{ Choose(int) int }) check.Execution {
		props := make([]sim.Value, *n)
		for i := range props {
			props[i] = sim.Value(10 + i)
		}
		model := sim.ModelExtended
		if opts.CommitAsData {
			model = sim.ModelClassic
		}
		var adv sim.Adversary = adversary.NewFromChooser(ch, *tt, sim.Round(*n))
		if *omitBudget > 0 {
			adv = adversary.NewFromChooserWithOmissions(ch, *tt, sim.Round(*n), *omitBudget, *n)
		}
		return check.Execution{
			Procs:     core.NewSystem(props, opts),
			Adv:       adv,
			Cfg:       sim.Config{Model: model, Horizon: sim.Round(*n + 2)},
			Proposals: props,
		}
	}
	if *replay != "" {
		script, err := check.ParseScript(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "agreexplore:", err)
			return 1
		}
		return replayScript(factory, script)
	}
	if *worst {
		w, err := check.FindWorstSchedule(factory, check.ExploreOpts{Budget: *budget})
		if err != nil {
			fmt.Fprintln(os.Stderr, "agreexplore:", err)
			return 1
		}
		fmt.Printf("worst execution over %d explored: decides at round %d with %d fault(s)\n",
			w.Executions, w.DecideRound, w.Faults)
		fmt.Printf("script %v — replaying with trace:\n\n", w.Script)
		return replayScript(factory, w.Script)
	}

	validator := func(ex check.Execution, res *sim.Result, engineErr error) error {
		if engineErr != nil {
			return engineErr
		}
		if err := check.Consensus(ex.Proposals, res); err != nil {
			return err
		}
		if *omitBudget > 0 {
			// The f+1 bound is a crash-model theorem; omission schedules are
			// judged on the consensus properties alone.
			return nil
		}
		return check.RoundBound(res, check.BoundFPlus1)
	}
	eopts := check.ExploreOpts{Budget: *budget, MaxCounterexamples: *maxCE, Workers: *workers}
	var stats check.Stats
	var err error
	if *parallel {
		stats, err = check.ExploreParallel(factory, validator, eopts)
	} else {
		stats, err = check.Explore(factory, validator, eopts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "agreexplore:", err)
		return 1
	}

	mode := "sequential"
	if *parallel {
		if effective := check.EffectiveWorkers(eopts); effective > 1 {
			// "≤" because degenerate spaces (no choice points to shard) run
			// on fewer workers than the pool offers.
			mode = fmt.Sprintf("parallel/≤%d workers", effective)
		} else {
			// ExploreParallel degrades to the sequential explorer when only
			// one worker (or a tiny budget) is in play; report what ran.
			mode = "sequential (parallel fallback)"
		}
	}
	fmt.Printf("explored      %d executions (n=%d, t=%d, order=%s, commit-as-data=%t, %s)\n",
		stats.Executions, *n, *tt, *order, *commitAsData, mode)
	fmt.Printf("max faults    %d\n", stats.MaxFaults)
	fmt.Printf("max decide    round %d (bound t+1 = %d)\n", stats.MaxDecideRound, *tt+1)
	if len(stats.Counterexamples) == 0 {
		fmt.Println("violations    none — every execution satisfies uniform consensus and the f+1 bound")
		return 0
	}
	fmt.Printf("violations    %d\n", len(stats.Counterexamples))
	for i, ce := range stats.Counterexamples {
		fmt.Printf("  [%d] %v\n", i+1, ce.Err)
		fmt.Printf("      script %v (re-run with -replay %s for a full trace)\n",
			ce.Script, check.ScriptString(ce.Script))
		fmt.Printf("      decisions %s, crashed %s\n", ce.Result.DecisionsString(), ce.Result.CrashedString())
	}
	return 2
}

// replayScript re-executes one scripted run with a full transcript and
// verdict, returning the process exit code.
func replayScript(factory check.RunFactory, script []int) int {
	log := trace.New()
	ex := factory(&check.Replayer{Values: script})
	cfg := ex.Cfg
	cfg.Trace = log
	eng, err := sim.NewEngine(cfg, ex.Procs, ex.Adv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "agreexplore:", err)
		return 1
	}
	res, runErr := eng.Run()
	fmt.Print(log.String())
	fmt.Println()
	fmt.Printf("decisions %s (rounds %s), crashed %s\n", res.DecisionsString(), res.DecideRoundsString(), res.CrashedString())
	if runErr != nil {
		fmt.Printf("engine error: %v\n", runErr)
	}
	if err := check.Consensus(ex.Proposals, res); err != nil {
		fmt.Printf("VERDICT: %v\n", err)
		return 2
	}
	if err := check.RoundBound(res, check.BoundFPlus1); err != nil {
		fmt.Printf("VERDICT: consensus holds but %v\n", err)
		return 2
	}
	fmt.Println("VERDICT: uniform consensus and the f+1 bound hold")
	return 0
}
