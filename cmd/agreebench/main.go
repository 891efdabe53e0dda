// Command agreebench regenerates the experiment tables E1–E16, which map
// one-to-one onto the quantitative claims of the paper (see DESIGN.md for
// the experiment index and EXPERIMENTS.md for paper-vs-measured records).
//
// Usage:
//
//	agreebench                 # run every experiment
//	agreebench -e E3           # run one experiment (E3/E16 execute on the timed engine)
//	agreebench -list           # list experiment ids and titles
//	agreebench -workers 8      # fan batched experiments across 8 sweep workers
//	agreebench -crosscheck     # additionally validate every batched run on
//	                           # every other registered engine
package main

import (
	"fmt"
	"io"
	"os"

	"repro/agree"
	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() { os.Exit(command(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func command(stdout, stderr io.Writer) *cli.Cmd {
	c := cli.New("agreebench", stdout, stderr)
	exp := c.String("e", "", "experiment id to run (E1..E16); empty runs all")
	list := c.Bool("list", false, "list experiments and exit")
	workers := c.Int("workers", 1, "sweep worker-pool size for batched experiments (0 = GOMAXPROCS)")
	crosscheck := c.Bool("crosscheck", false, "cross-validate batched runs on every other registered engine")
	c.Main = func() int {
		if err := c.AtLeast(0, "workers"); err != nil {
			return c.Fail(err)
		}
		experiments.SetSweepOptions(agree.SweepOptions{Workers: *workers, CrossCheck: *crosscheck})
		if *list {
			for _, e := range experiments.List() {
				fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
			}
			return 0
		}
		var tables []*experiments.Table
		if *exp == "" {
			tables = experiments.All()
		} else if t := experiments.ByID(*exp); t != nil {
			tables = []*experiments.Table{t}
		} else {
			return c.Fail(fmt.Errorf("unknown experiment %q (try -list)", *exp))
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t.String())
		}
		// Batched experiments rewind Reusable engines between jobs instead
		// of rebuilding them; report how much construction that saved.
		if built, reuses := experiments.PoolUsage(); built+reuses > 0 {
			fmt.Fprintf(stdout, "engine pool: %d built, %d reuse hits across batched sweeps\n", built, reuses)
		}
		// A failed verdict exits non-zero, so the command doubles as a
		// reproduction gate in CI.
		for _, t := range tables {
			if len(t.Verdict) < 4 || t.Verdict[:4] != "PASS" {
				return c.Fail(fmt.Errorf("%s failed: %s", t.ID, t.Verdict))
			}
		}
		return 0
	}
	return c
}
