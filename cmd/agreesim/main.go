// Command agreesim replays the declarative scenario catalog: every checked-in
// *.scenario file under scenarios/ describes one consensus run — protocol,
// system size, engines, latency model, fault script — and the outcome it must
// produce (verdict class, round bounds, simulated-time bounds). agreesim
// loads the catalog, executes each entry on each selected engine through the
// harness registry, and fails with a deterministic diff naming the scenario
// file and the diverging field when any expectation breaks.
//
// Examples:
//
//	agreesim -list                              # catalog inventory
//	agreesim -run all                           # full catalog, each scenario's own engines
//	agreesim -run all -engines all              # full catalog forced onto every registered engine
//	agreesim -run crash/worst-case-n8-f3        # one scenario
//	agreesim -run all -engines deterministic    # tier-1: catalog on the deterministic engine
//	agreesim -run all -json                     # machine-readable results
//	agreesim -convert findings.txt -n 16 -name-prefix omission/nightly -out scenarios
//	                                            # turn an `agreefuzz -findings-out` artifact
//	                                            # into checked-in scenario files
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/agree"
	"repro/internal/cli"
	"repro/internal/fuzz"
	"repro/internal/scenario"
)

func main() { os.Exit(command(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func command(stdout, stderr io.Writer) *cli.Cmd {
	c := cli.New("agreesim", stdout, stderr)
	var (
		dir        = c.String("dir", "scenarios", "scenario catalog directory")
		list       = c.Bool("list", false, "list the catalog and exit")
		runNames   = c.String("run", "", "scenarios to run: 'all' or a comma-separated name list")
		engines    = c.String("engines", "", "engine override: 'all' or a comma-separated kind list (default: each scenario's own engines)")
		workers    = c.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS; any count yields identical results)")
		jsonOut    = c.Bool("json", false, "emit results as JSON")
		convert    = c.String("convert", "", "convert an agreefuzz -findings-out artifact into scenario files and exit")
		out        = c.String("out", "scenarios", "catalog root the converter writes under")
		namePrefix = c.String("name-prefix", "", "scenario name prefix for converted findings (required with -convert; e.g. omission/nightly-20260807)")
		n          = c.Int("n", 0, "converter: system size of the campaign the findings came from")
		tt         = c.Int("t", 0, "converter: resilience bound of the campaign (0 = n-1)")
		protocol   = c.String("protocol", "crw", "converter: protocol of the campaign")
		engine     = c.String("engine", "", "converter: restrict the scenario to one engine kind (default: all engines)")
		cad        = c.Bool("commit-as-data", false, "converter: the campaign ran the commit-as-data ablation")
		order      = c.Order("converter: ")
		lat        = c.Latency("converter: ")
	)
	c.Profiles()
	c.Telemetry("one executed (scenario, engine) pair only: ")
	c.Main = func() int {
		if err := c.AtLeast(0, "workers"); err != nil {
			return c.Fail(err)
		}
		if *convert != "" {
			latency, err := lat.Scenario()
			asc, orderErr := cli.Ascending(*order)
			if err = errors.Join(err, orderErr); err != nil {
				return c.Fail(err)
			}
			campaign := scenario.Scenario{Protocol: *protocol, N: *n, T: *tt, Latency: latency,
				CommitAsData: *cad, OrderAscending: asc}
			if *engine != "" {
				campaign.Engines = []string{*engine}
			}
			if err := convertFindings(stdout, *convert, *out, *namePrefix, campaign, *workers); err != nil {
				return c.Fail(err)
			}
			return 0
		}

		if *list {
			entries, err := scenario.LoadDir(*dir)
			if err != nil {
				return c.Fail(err)
			}
			for _, e := range entries {
				sc := e.Scenario
				eng := "all"
				if len(sc.Engines) > 0 {
					eng = strings.Join(sc.Engines, ",")
				}
				fmt.Fprintf(stdout, "%-44s n=%-3d expect=%-12s engines=%-30s %s\n", sc.Name, sc.N, sc.Expect.Verdict, eng, sc.Info)
			}
			fmt.Fprintf(stdout, "%d scenarios under %s\n", len(entries), *dir)
			return 0
		}

		if *runNames == "" {
			c.Usage()
			return 1
		}
		opts := agree.ScenarioOptions{Dir: *dir, Workers: *workers, Telemetry: c.WantsTelemetry()}
		if *runNames != "all" {
			opts.Names = strings.Split(*runNames, ",")
			for i := range opts.Names {
				opts.Names[i] = strings.TrimSpace(opts.Names[i])
			}
		}
		if *engines != "" {
			if *engines == "all" {
				for _, info := range agree.Engines() {
					opts.Engines = append(opts.Engines, info.Kind)
				}
			} else {
				for _, e := range strings.Split(*engines, ",") {
					opts.Engines = append(opts.Engines, agree.EngineKind(strings.TrimSpace(e)))
				}
			}
		}
		rep, err := agree.RunScenarios(opts)
		if err != nil {
			return c.Fail(err)
		}
		if c.WantsTelemetry() {
			if err := exportTelemetry(c, rep); err != nil {
				return c.Fail(err)
			}
		}
		if *jsonOut {
			if err := printJSON(stdout, rep); err != nil {
				return c.Fail(err)
			}
		} else {
			printText(stdout, rep)
		}
		if rep.Failed > 0 {
			return 2
		}
		return 0
	}
	return c
}

// exportTelemetry writes the telemetry artifacts of a catalog run. The flags
// export one run's timeline, so the selection must resolve to exactly one
// executed (scenario, engine) pair — narrow with -run and -engines otherwise.
func exportTelemetry(c *cli.Cmd, rep *agree.ScenarioReport) error {
	if rep.Ran != 1 {
		return fmt.Errorf("-telemetry-out/-chrome-trace export one run's timeline but the selection executed %d (scenario, engine) pairs; narrow it with -run and -engines", rep.Ran)
	}
	i := slices.IndexFunc(rep.Results, func(r agree.ScenarioResult) bool { return !r.Skipped })
	return c.WriteTelemetry(rep.Results[i].Telemetry())
}

// printText renders the results one line per (scenario, engine) run, with
// expectation mismatches spelled out and a trailing summary.
func printText(w io.Writer, rep *agree.ScenarioReport) {
	for _, r := range rep.Results {
		switch {
		case r.Skipped:
			fmt.Fprintf(w, "skip %-44s %-13s (%s)\n", r.Name, r.Engine, r.SkipReason)
		case r.Err != nil:
			fmt.Fprintf(w, "FAIL %-44s %-13s %v\n", r.Name, r.Engine, r.Err)
		default:
			line := fmt.Sprintf("ok   %-44s %-13s verdict=%s rounds=%d decide=%d",
				r.Name, r.Engine, r.Verdict, r.Rounds, r.MaxDecideRound)
			if r.SimTime > 0 {
				line += fmt.Sprintf(" simtime=%g", r.SimTime)
			}
			fmt.Fprintln(w, line)
		}
	}
	fmt.Fprintf(w, "scenarios %d, runs %d (skipped %d), failures %d\n",
		rep.Scenarios, rep.Ran, rep.Skipped, rep.Failed)
}

// jsonResult is the machine-readable shape of one result.
type jsonResult struct {
	Name           string  `json:"name"`
	File           string  `json:"file"`
	Engine         string  `json:"engine"`
	Skipped        bool    `json:"skipped,omitempty"`
	SkipReason     string  `json:"skipReason,omitempty"`
	Verdict        string  `json:"verdict,omitempty"`
	Rounds         int     `json:"rounds,omitempty"`
	MaxDecideRound int     `json:"maxDecideRound,omitempty"`
	SimTime        float64 `json:"simTime,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// printJSON renders the full report as JSON in deterministic order.
func printJSON(w io.Writer, rep *agree.ScenarioReport) error {
	type jsonReport struct {
		Scenarios int          `json:"scenarios"`
		Ran       int          `json:"ran"`
		Skipped   int          `json:"skipped"`
		Failed    int          `json:"failed"`
		Results   []jsonResult `json:"results"`
	}
	jr := jsonReport{Scenarios: rep.Scenarios, Ran: rep.Ran, Skipped: rep.Skipped, Failed: rep.Failed}
	for _, r := range rep.Results {
		res := jsonResult{
			Name: r.Name, File: r.File, Engine: string(r.Engine),
			Skipped: r.Skipped, SkipReason: r.SkipReason,
			Verdict: r.Verdict, Rounds: r.Rounds, MaxDecideRound: r.MaxDecideRound,
			SimTime: r.SimTime,
		}
		if r.Err != nil {
			res.Error = r.Err.Error()
		}
		jr.Results = append(jr.Results, res)
	}
	data, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	return nil
}

// convertFindings turns each replay script of an agreefuzz findings artifact
// into a scenario file: the script is re-executed under the campaign's
// parameters, the observed verdict and bounds become the scenario's
// expectations, and the expectation-checked scenario is confirmed green
// before it is written — so every converted file is a passing catalog entry
// from the moment it lands.
func convertFindings(w io.Writer, findings, out, prefix string, campaign scenario.Scenario, workers int) error {
	if prefix == "" {
		return fmt.Errorf("-convert requires -name-prefix (e.g. omission/nightly-20260807)")
	}
	if campaign.N < 1 {
		return fmt.Errorf("-convert requires -n (the campaign's system size)")
	}
	data, err := os.ReadFile(findings)
	if err != nil {
		return err
	}
	scripts, err := fuzz.ParseFindings(string(data))
	if err != nil {
		return err
	}
	if len(scripts) == 0 {
		fmt.Fprintf(w, "no findings in %s; nothing to convert\n", findings)
		return nil
	}
	for i, script := range scripts {
		if mp := script.MaxProc(); mp > campaign.N {
			return fmt.Errorf("finding %d names p%d but the campaign size is n=%d", i+1, mp, campaign.N)
		}
		sc := campaign
		sc.Name = fmt.Sprintf("%s-%d", prefix, i+1)
		sc.Info = fmt.Sprintf("converted from fuzz finding %d of %s", i+1, filepath.Base(findings))
		sc.Faults = script.String()
		sc.Expect = scenario.Expect{Verdict: scenario.VerdictPass}
		if err := sc.Validate(); err != nil {
			return err
		}
		if err := pinExpectations(&sc, workers); err != nil {
			return fmt.Errorf("finding %d (%q): %w", i+1, script.String(), err)
		}
		path := filepath.Join(out, filepath.FromSlash(sc.Name)+scenario.Ext)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(sc.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (expect=%s rounds=%d decide<=%d)\n",
			path, sc.Expect.Verdict, sc.Expect.Rounds, sc.Expect.DecideRoundMax)
	}
	fmt.Fprintf(w, "converted %d findings into %s\n", len(scripts), out)
	return nil
}

// pinExpectations executes a scenario, records the observed verdict and round
// outcome as its expectation, and re-executes to confirm the pinned scenario
// is green. Engines must agree on the observed outcome (scenario scripts are
// order-insensitive); a divergence is an error, not a silently single-engine
// pin.
func pinExpectations(sc *scenario.Scenario, workers int) error {
	observe := func() (*agree.ScenarioReport, error) {
		return agree.RunScenarios(agree.ScenarioOptions{
			Sources: []agree.ScenarioSource{{File: "converted", Text: sc.String()}},
			Workers: workers,
		})
	}
	rep, err := observe()
	if err != nil {
		return err
	}
	pinned := false
	for _, r := range rep.Results {
		if r.Skipped {
			continue
		}
		if !pinned {
			sc.Expect = scenario.Expect{
				Verdict:        r.Verdict,
				Rounds:         r.Rounds,
				DecideRoundMax: r.MaxDecideRound,
			}
			pinned = true
			continue
		}
		if r.Verdict != sc.Expect.Verdict || r.Rounds != sc.Expect.Rounds ||
			r.MaxDecideRound > sc.Expect.DecideRoundMax {
			return fmt.Errorf("engines diverge on the observed outcome (%s: verdict=%s rounds=%d decide=%d vs pinned verdict=%s rounds=%d decide<=%d)",
				r.Engine, r.Verdict, r.Rounds, r.MaxDecideRound,
				sc.Expect.Verdict, sc.Expect.Rounds, sc.Expect.DecideRoundMax)
		}
	}
	if !pinned {
		return fmt.Errorf("no engine could execute the scenario")
	}
	rep, err = observe()
	if err != nil {
		return err
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			return fmt.Errorf("pinned expectation did not hold on re-run: %w", r.Err)
		}
	}
	return nil
}
