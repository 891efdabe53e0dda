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
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() { os.Exit(command(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func command(stdout, stderr io.Writer) *cli.Cmd {
	c := cli.New("agreexplore", stdout, stderr)
	var (
		n            = c.Int("n", 4, "number of processes (keep small: the space is exhaustive)")
		tt           = c.Int("t", 2, "crash budget")
		order        = c.Order("")
		commitAsData = c.Bool("commit-as-data", false, "fold the commit into the data step (ablation)")
		omitBudget   = c.Int("omit-budget", 0, "additionally enumerate up to this many omission events per execution (ablation: the reliable-channel assumption falls; the f+1 bound is not checked)")
		budget       = c.Int("budget", 50_000_000, "maximum executions to explore")
		maxCE        = c.Int("max-counterexamples", 3, "stop after this many violations")
		worst        = c.Bool("worst", false, "search for the slowest execution and replay it with a trace")
		replay       = c.String("replay", "", "comma-separated choice script to replay with a trace")
		parallel     = c.Bool("parallel", false, "shard the exploration across all CPUs")
		workers      = c.Int("workers", 0, "worker-pool size with -parallel (0 = GOMAXPROCS)")
	)
	c.CPUProfile()
	c.Main = func() int {
		asc, err := cli.Ascending(*order)
		if err = errors.Join(err, c.AtLeast(1, "n"), c.AtLeast(0, "t", "omit-budget", "budget", "workers")); err != nil {
			return c.Fail(err)
		}
		if *tt >= *n {
			return c.Fail(fmt.Errorf("-t=%d must be below -n=%d: a run needs a survivor", *tt, *n))
		}
		// -t is the explorer's crash budget, so -t 0 explores crash-free
		// schedules; CRW's construction and bound do not depend on t.
		spec := protocol.Spec{N: *n, OrderAscending: asc, CommitAsData: *commitAsData}
		newFactory := spec.Explorer(*tt, *omitBudget)
		if *replay != "" {
			script, err := check.ParseScript(*replay)
			if err != nil {
				return c.Fail(err)
			}
			return replayScript(c, newFactory(), spec.Bound(), script)
		}
		if *worst {
			w, err := check.FindWorstSchedule(newFactory, check.ExploreOpts{Budget: *budget})
			if err != nil {
				return c.Fail(err)
			}
			fmt.Fprintf(stdout, "worst execution over %d explored: decides at round %d with %d fault(s)\n",
				w.Executions, w.DecideRound, w.Faults)
			fmt.Fprintf(stdout, "script %v — replaying with trace:\n\n", w.Script)
			return replayScript(c, newFactory(), spec.Bound(), w.Script)
		}

		eopts := check.ExploreOpts{Budget: *budget, MaxCounterexamples: *maxCE, Workers: *workers}
		stats, err := spec.Explore(*tt, *omitBudget, *parallel, eopts)
		if err != nil {
			return c.Fail(err)
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
		fmt.Fprintf(stdout, "explored      %d executions (n=%d, t=%d, order=%s, commit-as-data=%t, %s)\n",
			stats.Executions, *n, *tt, *order, *commitAsData, mode)
		fmt.Fprintf(stdout, "max faults    %d\n", stats.MaxFaults)
		fmt.Fprintf(stdout, "max decide    round %d (bound t+1 = %d)\n", stats.MaxDecideRound, *tt+1)
		if len(stats.Counterexamples) == 0 {
			fmt.Fprintln(stdout, "violations    none — every execution satisfies uniform consensus and the f+1 bound")
			return 0
		}
		fmt.Fprintf(stdout, "violations    %d\n", len(stats.Counterexamples))
		for i, ce := range stats.Counterexamples {
			fmt.Fprintf(stdout, "  [%d] %v\n", i+1, ce.Err)
			fmt.Fprintf(stdout, "      script %v (re-run with -replay %s for a full trace)\n",
				ce.Script, check.ScriptString(ce.Script))
			fmt.Fprintf(stdout, "      decisions %s, crashed %s\n", ce.Result.DecisionsString(), ce.Result.CrashedString())
		}
		return 2
	}
	return c
}

// replayScript re-executes one scripted run with a full transcript and
// verdict against bound, returning the process exit code.
func replayScript(c *cli.Cmd, factory check.RunFactory, bound func(f int) sim.Round, script []int) int {
	log := trace.New()
	ex := factory(&check.Replayer{Values: script})
	cfg := ex.Cfg
	cfg.Trace = log
	eng, err := sim.NewEngine(cfg, ex.Procs, ex.Adv)
	if err != nil {
		return c.Fail(err)
	}
	res, runErr := eng.Run()
	fmt.Fprintln(c.Stdout, log.String())
	fmt.Fprintf(c.Stdout, "decisions %s (rounds %s), crashed %s\n", res.DecisionsString(), res.DecideRoundsString(), res.CrashedString())
	if runErr != nil {
		fmt.Fprintf(c.Stdout, "engine error: %v\n", runErr)
	}
	if err := check.Consensus(ex.Proposals, res); err != nil {
		fmt.Fprintf(c.Stdout, "VERDICT: %v\n", err)
		return 2
	}
	if err := check.RoundBound(res, bound); err != nil {
		fmt.Fprintf(c.Stdout, "VERDICT: consensus holds but %v\n", err)
		return 2
	}
	fmt.Fprintln(c.Stdout, "VERDICT: uniform consensus and the f+1 bound hold")
	return 0
}
