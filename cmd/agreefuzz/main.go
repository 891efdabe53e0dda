// Command agreefuzz runs randomized fuzzing campaigns against the
// implemented consensus protocols: seeded random-walk fault schedules —
// crashes and, when enabled, send/receive-omission faults — at sizes the
// exhaustive explorer cannot reach, every run validated against the
// consensus oracles, violations minimized into compact replayable scripts.
//
// Examples:
//
//	agreefuzz -n 24 -t 8 -seeds 5000                    # faithful algorithm: expect 0 findings
//	agreefuzz -n 4 -t 2 -commit-as-data -seeds 200      # ablation: uniform agreement falls, shrunk scripts printed
//	agreefuzz -n 5 -t 3 -order asc -seeds 500           # ablation: f+1 bound falls
//	agreefuzz -n 8 -send-omit-prob 0.1 -omission-only -expect-findings  # omission model: agreement falls, as the
//	                                                    # paper's reliable-channel assumption predicts
//	agreefuzz -n 4 -t 2 -commit-as-data -replay 'p1@r1:100/0'  # replay a script with a full trace
//	agreefuzz -n 3 -replay 'p1@r1:so:01/11'             # replay an omission script
//	agreefuzz -n 12 -engine timed -seeds 5000 -crosscheck      # campaign on continuous time,
//	                                                    # findings replayed on every engine
//	agreefuzz -n 16 -seeds 100000 -laws                 # law hunt: conservation, ledger, clock and
//	                                                    # budget oracles stand next to the consensus oracle
//	agreefuzz -n 8 -engine timed -lat-d 1 -lat-floor 0.5 -lat-spread 2 -expect-findings
//	                                                    # timing-fault campaign: late messages
//	                                                    # (receive omissions) break agreement
//
// A -cpuprofile of a campaign labels its samples per (engine, seed) for
// pprof's tags view.
package main

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/agree"
	"repro/internal/cli"
)

func main() { os.Exit(command(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func command(stdout, stderr io.Writer) *cli.Cmd {
	c := cli.New("agreefuzz", stdout, stderr)
	var (
		n            = c.Int("n", 16, "number of processes")
		tt           = c.Int("t", 0, "crash budget per execution (0 = n-1)")
		protocol     = c.String("protocol", "crw", "protocol: crw, earlystop or floodset")
		seeds        = c.Int("seeds", 1000, "number of seeds to fuzz")
		seed0        = c.Int64("seed", 1, "base seed (seed i of the campaign is seed+i)")
		crashProb    = c.Float64("crashprob", 0.25, "per-(process, round) crash probability")
		order        = c.Order("CRW only: ")
		commitAsData = c.Bool("commit-as-data", false, "fold the commit into the data step (ablation, CRW only)")
		shrink       = c.Bool("shrink", true, "minimize violating schedules by delta debugging")
		shrinkRuns   = c.Int("max-shrink-runs", 512, "replay budget of the shrinker per finding")
		workers      = c.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS; any count yields the identical report)")
		crossCheck   = c.Bool("crosscheck", false, "replay findings on every other registered engine and diff the outcome")
		replay       = c.String("replay", "", "replay one fault script with a full trace instead of fuzzing")
		sendOmit     = c.Float64("send-omit-prob", 0, "per-(process, round) send-omission probability (0 = crash model)")
		recvOmit     = c.Float64("recv-omit-prob", 0, "per-(process, round) receive-omission probability")
		maxOmissive  = c.Int("max-omissive", 0, "max distinct omission-faulty processes per execution (0 = n-1)")
		omitOnly     = c.Bool("omission-only", false, "disable crash injection (pure omission campaign)")
		huntLaws     = c.Bool("laws", false, "add the law oracles: every run must also satisfy message conservation, ledger consistency, the event-clock contract and the fault budget")
		expectFind   = c.Bool("expect-findings", false, "invert the verdict: the campaign passes when it finds (and cleanly replays) at least one violation — for ablations where the paper predicts the break")
		findingsOut  = c.String("findings-out", "", "write the findings' replay scripts to this file, one per line")
		engine       = c.String("engine", "deterministic", "engine the campaign runs on (must be deterministic; timed enables -lat-* knobs)")
		lat          = c.Latency("timed engine: ")
	)
	c.Profiles()
	c.Telemetry("-replay only: ")
	c.Main = func() int {
		latency, err := lat.Spec()
		asc, orderErr := cli.Ascending(*order)
		if err = errors.Join(err, orderErr, c.AtLeast(0, "t", "seeds", "workers")); err != nil {
			return c.Fail(err)
		}
		cfg := agree.FuzzConfig{
			N: *n, T: *tt, Protocol: agree.Protocol(*protocol),
			Engine: agree.EngineKind(*engine), Latency: latency,
			Seeds: *seeds, Seed: *seed0, CrashProb: *crashProb,
			SendOmitProb: *sendOmit, RecvOmitProb: *recvOmit,
			MaxOmissive: *maxOmissive, OmissionOnly: *omitOnly,
			CommitAsData: *commitAsData, OrderAscending: asc,
			Laws: *huntLaws, Shrink: *shrink, MaxShrinkRuns: *shrinkRuns,
			Workers: *workers, CrossCheck: *crossCheck,
		}
		if *replay != "" {
			cfg.Telemetry = c.WantsTelemetry()
			return replayScript(c, cfg, *replay)
		}
		if c.WantsTelemetry() {
			return c.Fail(errors.New("-telemetry-out/-chrome-trace export one replay's timeline; combine them with -replay"))
		}
		rep, err := agree.Fuzz(cfg)
		if err != nil {
			return c.Fail(err)
		}

		fmt.Fprintf(stdout, "fuzzed        %d seeds (n=%d, t=%d, protocol=%s, engine=%s, crashprob=%g, order=%s, commit-as-data=%t)\n",
			rep.Seeds, *n, effectiveT(cfg), *protocol, *engine, *crashProb, *order, *commitAsData)
		if *sendOmit > 0 || *recvOmit > 0 {
			eff := *maxOmissive
			if eff <= 0 {
				eff = *n - 1
			}
			fmt.Fprintf(stdout, "omissions     send-prob=%g recv-prob=%g max-omissive=%d omission-only=%t (oracle: consensus only — round bounds are crash-model theorems)\n",
				*sendOmit, *recvOmit, eff, *omitOnly)
		}
		if *huntLaws {
			fmt.Fprintln(stdout, "laws          conservation, ledger consistency, clock and fault-budget oracles standing")
		}
		fmt.Fprintf(stdout, "executions    %d (incl. replay verification%s)\n", rep.Executions, shrinkNote(*shrink, *crossCheck))
		fmt.Fprintf(stdout, "max faults    %d crashes, %d omission-faulty\n", rep.MaxFaults, rep.MaxOmissionFaulty)
		fmt.Fprintf(stdout, "max decide    round %d\n", rep.MaxDecideRound)
		fmt.Fprintf(stdout, "decide rounds %s\n", histogram(rep.RoundHistogram))

		divergence := false
		var scripts []string
		for _, f := range rep.Findings {
			if f.CrossCheckErr != nil {
				divergence = true
			}
			script := f.Shrunk
			if script == "" {
				script = f.Script
			}
			scripts = append(scripts, script)
		}
		if *findingsOut != "" {
			data := ""
			if len(scripts) > 0 {
				data = strings.Join(scripts, "\n") + "\n"
			}
			if err := os.WriteFile(*findingsOut, []byte(data), 0o644); err != nil {
				return c.Fail(err)
			}
		}

		if len(rep.Findings) == 0 {
			oracles := "the consensus oracles"
			if *huntLaws {
				oracles = "the consensus and law oracles"
			}
			fmt.Fprintf(stdout, "findings      none — every sampled schedule satisfies %s\n", oracles)
			if *expectFind {
				fmt.Fprintln(stdout, "VERDICT: FAIL — the campaign was expected to find a violation (-expect-findings) and did not")
				return 2
			}
			return 0
		}
		fmt.Fprintf(stdout, "findings      %d\n", len(rep.Findings))
		for i, f := range rep.Findings {
			class := ""
			if f.Law != "" {
				class = fmt.Sprintf(" [law %s]", f.Law)
			}
			fmt.Fprintf(stdout, "  [%d] seed %d%s: %v\n", i+1, f.Seed, class, f.Err)
			fmt.Fprintf(stdout, "      script %q\n", f.Script)
			if f.Shrunk != "" || f.ShrunkErr != nil {
				fmt.Fprintf(stdout, "      shrunk %q (%d crash + %d omission events): %v\n",
					f.Shrunk, f.ShrunkCrashes, f.ShrunkOmissions, f.ShrunkErr)
			}
			if len(f.CrossChecked) > 0 {
				fmt.Fprintf(stdout, "      cross-checked on %v\n", f.CrossChecked)
			}
			if f.CrossCheckErr != nil {
				fmt.Fprintf(stdout, "      CROSS-CHECK DIVERGENCE: %v\n", f.CrossCheckErr)
			}
			fmt.Fprintf(stdout, "      reproduce with -replay '%s'\n", scripts[i])
		}
		if *expectFind {
			if divergence {
				fmt.Fprintln(stdout, "VERDICT: FAIL — findings found but a cross-engine replay diverged")
				return 2
			}
			how := "found and replay-verified"
			if *shrink {
				how = "found, shrunk and replay-verified"
			}
			if *crossCheck {
				how += ", cross-checked on every engine"
			}
			fmt.Fprintf(stdout, "VERDICT: OK — the predicted violation was %s\n", how)
			return 0
		}
		return 2
	}
	return c
}

// effectiveT mirrors the campaign's crash-budget defaulting for the summary
// line: zero under -omission-only (crash injection disabled), n-1 when
// unset, the flag value otherwise.
func effectiveT(cfg agree.FuzzConfig) int {
	if cfg.OmissionOnly || cfg.N == 1 {
		return 0
	}
	if cfg.T <= 0 || cfg.T >= cfg.N {
		return cfg.N - 1
	}
	return cfg.T
}

// shrinkNote annotates the execution counter with the extra work enabled.
func shrinkNote(shrink, crossCheck bool) string {
	switch {
	case shrink && crossCheck:
		return ", shrinking and cross-checks"
	case shrink:
		return " and shrinking"
	case crossCheck:
		return " and cross-checks"
	default:
		return ""
	}
}

// histogram renders a round histogram compactly in round order.
func histogram(h map[int]int) string {
	if len(h) == 0 {
		return "(no passing runs)"
	}
	parts := make([]string, 0, len(h))
	for _, r := range slices.Sorted(maps.Keys(h)) {
		parts = append(parts, fmt.Sprintf("r%d:%d", r, h[r]))
	}
	return strings.Join(parts, " ")
}

// replayScript re-executes one crash script with a full transcript and
// oracle verdict, through the exact protocol construction and oracle the
// campaign used (agree.FuzzReplayScript) — including the script-vs-n
// validation, so an out-of-range script is an error, not a silently
// failure-free passing run.
func replayScript(c *cli.Cmd, cfg agree.FuzzConfig, text string) int {
	rep, err := agree.FuzzReplayScript(cfg, text, true)
	if err != nil {
		return c.Fail(err)
	}
	if err := c.WriteTelemetry(rep.Telemetry); err != nil {
		return c.Fail(err)
	}
	fmt.Fprintln(c.Stdout, rep.Transcript)
	fmt.Fprintf(c.Stdout, "decisions %v (rounds %v), crashed %v, omissive %v\n",
		rep.Decisions, rep.DecideRound, rep.Crashed, rep.Omissive)
	if rep.Err != nil {
		if rep.Law != "" {
			fmt.Fprintf(c.Stdout, "VERDICT: [law %s] %v\n", rep.Law, rep.Err)
		} else {
			fmt.Fprintf(c.Stdout, "VERDICT: %v\n", rep.Err)
		}
		return 2
	}
	verdict := "uniform consensus and the round bound hold"
	if cfg.Laws {
		verdict += "; all laws hold"
	}
	fmt.Fprintln(c.Stdout, "VERDICT: "+verdict)
	return 0
}
