// Command agreexplore exhaustively model-checks the paper's algorithm (or
// one of its ablations) for a small system: it enumerates every crash
// schedule and delivery truncation the extended model allows, validates
// uniform consensus and the f+1 decision bound on each execution, and prints
// either the exploration statistics or its counterexamples as fault scripts,
// the format agreefuzz -replay reads too.
//
// Examples:
//
//	agreexplore -n 4 -t 2                 # faithful algorithm: expect 0 violations
//	agreexplore -n 4 -t 1 -order asc      # ablation: f+1 bound violated
//	agreexplore -n 3 -t 1 -commit-as-data # ablation: uniform agreement violated
//	agreexplore -n 4 -t 2 -worst          # find + replay the slowest execution
//	agreexplore -n 3 -t 1 -commit-as-data -replay 'p1@r1:0001/0'   # trace a counterexample
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/agree"
	"repro/internal/cli"
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
		replay       = c.String("replay", "", "fault script to replay with a trace (as a counterexample prints it)")
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
		replayCfg := agree.FuzzConfig{N: *n, T: *tt, OrderAscending: asc, CommitAsData: *commitAsData}
		if *replay != "" {
			return replayScript(c, replayCfg, *replay)
		}
		// -t is the explorer's crash budget, so -t 0 explores crash-free
		// schedules; CRW's construction and bound do not depend on t.
		rep, err := agree.Explore(agree.ExploreConfig{
			N: *n, T: *tt, OmissionOnly: *tt == 0, OrderAscending: asc, CommitAsData: *commitAsData,
			OmissionBudget: *omitBudget, Budget: *budget, MaxCounterexamples: *maxCE,
			Parallel: *parallel, Workers: *workers,
		})
		if err != nil {
			return c.Fail(err)
		}
		if *worst && len(rep.Counterexamples) == 0 {
			fmt.Fprintf(stdout, "worst execution over %d explored: decides at round %d with %d fault(s)\n",
				rep.Executions, rep.Worst.DecideRound, rep.Worst.Faults)
			fmt.Fprintf(stdout, "script '%s' — replaying with trace:\n\n", rep.Worst.Script)
			return replayScript(c, replayCfg, rep.Worst.Script)
		}

		mode := "sequential"
		if *parallel {
			if rep.Workers > 1 {
				// "≤" because degenerate spaces (no choice points to shard) run
				// on fewer workers than the pool offers.
				mode = fmt.Sprintf("parallel/≤%d workers", rep.Workers)
			} else {
				mode = "sequential (parallel fallback)"
			}
		}
		fmt.Fprintf(stdout, "explored      %d executions (n=%d, t=%d, order=%s, commit-as-data=%t, %s)\n",
			rep.Executions, *n, *tt, *order, *commitAsData, mode)
		fmt.Fprintf(stdout, "max faults    %d\n", rep.MaxFaults)
		fmt.Fprintf(stdout, "max decide    round %d (bound t+1 = %d)\n", rep.MaxDecideRound, *tt+1)
		if len(rep.Counterexamples) == 0 {
			fmt.Fprintln(stdout, "violations    none — every execution satisfies uniform consensus and the f+1 bound")
			return 0
		}
		fmt.Fprintf(stdout, "violations    %d\n", len(rep.Counterexamples))
		for i, ce := range rep.Counterexamples {
			fmt.Fprintf(stdout, "  [%d] %v\n", i+1, ce.Err)
			fmt.Fprintf(stdout, "      decisions %v, crashed %v\n", ce.Decisions, ce.Crashed)
			fmt.Fprintf(stdout, "      reproduce with -replay '%s'\n", ce.Script)
		}
		return 2
	}
	return c
}

// replayScript re-executes one fault script with a full transcript and
// verdict through agree.FuzzReplayScript, returning the process exit code.
func replayScript(c *cli.Cmd, cfg agree.FuzzConfig, script string) int {
	rep, err := agree.FuzzReplayScript(cfg, script, true)
	if err != nil {
		return c.Fail(err)
	}
	fmt.Fprintln(c.Stdout, rep.Transcript)
	fmt.Fprintf(c.Stdout, "decisions %v (rounds %v), crashed %v, omissive %v\n",
		rep.Decisions, rep.DecideRound, rep.Crashed, rep.Omissive)
	if rep.Err != nil {
		fmt.Fprintf(c.Stdout, "VERDICT: %v\n", rep.Err)
		return 2
	}
	fmt.Fprintln(c.Stdout, "VERDICT: uniform consensus and the f+1 bound hold")
	return 0
}
