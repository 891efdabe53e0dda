package agree_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/agree"
)

// flattenFuzzReport renders a report into a canonical string: errors are
// compared by message, everything else by value. Two reports render equal
// iff they are semantically bit-identical.
func flattenFuzzReport(rep *agree.FuzzReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seeds=%d executions=%d maxRounds=%d maxDecide=%d maxFaults=%d hist=%v\n",
		rep.Seeds, rep.Executions, rep.MaxRounds, rep.MaxDecideRound, rep.MaxFaults, rep.RoundHistogram)
	for _, f := range rep.Findings {
		fmt.Fprintf(&b, "seed=%d err=%v script=%q shrunk=%q shrunkErr=%v shrunkCrashes=%d crosschecked=%v crossErr=%v\n",
			f.Seed, f.Err, f.Script, f.Shrunk, f.ShrunkErr, f.ShrunkCrashes, f.CrossChecked, f.CrossCheckErr)
	}
	return b.String()
}

// TestFuzzWorkerCountInvariance is the campaign determinism gate: for fixed
// seeds the report must be bit-identical across every worker count. The
// campaign fuzzes the commit-as-data ablation so the invariance covers the
// full pipeline — violations, shrinking and cross-checking included.
// scripts/verify.sh runs this under -race.
func TestFuzzWorkerCountInvariance(t *testing.T) {
	base := agree.FuzzConfig{
		N: 4, T: 2, Seeds: 48, CommitAsData: true,
		CrashProb: 0.35, Shrink: true, CrossCheck: true,
	}
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		rep, err := agree.Fuzz(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := flattenFuzzReport(rep)
		if workers == 1 {
			want = got
			if len(rep.Findings) == 0 {
				t.Fatal("campaign found no violations on the commit-as-data ablation; the invariance check is vacuous")
			}
			continue
		}
		if got != want {
			t.Errorf("workers=%d report differs from workers=1:\n--- workers=1\n%s--- workers=%d\n%s", workers, want, workers, got)
		}
	}
}

// TestFuzzReusedSystemsMatchSingleSeeds holds a campaign, whose workers
// reset one system per protocol from seed to seed, to the same seeds fuzzed
// one campaign each, on storage of their own: the findings (shrunk and
// cross-checked), executions and round histogram must agree on 1, 2 and 4
// workers. scripts/verify.sh runs this under -race.
func TestFuzzReusedSystemsMatchSingleSeeds(t *testing.T) {
	for _, base := range []agree.FuzzConfig{
		{N: 5, CommitAsData: true, CrashProb: 0.35, Shrink: true, CrossCheck: true, Laws: true},
		{N: 6, T: 3, OrderAscending: true, CrashProb: 0.35, Shrink: true},
		{N: 7, T: 3, Protocol: agree.ProtocolEarlyStop, Laws: true},
		{N: 6, T: 2, Protocol: agree.ProtocolFloodSet, SendOmitProb: 0.1, Shrink: true},
	} {
		base.Seeds = 24
		want := &agree.FuzzReport{Seeds: base.Seeds, RoundHistogram: map[int]int{}}
		for i := 0; i < base.Seeds; i++ {
			one := base
			one.Seeds, one.Seed, one.Workers = 1, int64(1+i), 1
			rep, err := agree.Fuzz(one)
			if err != nil {
				t.Fatal(err)
			}
			want.Executions += rep.Executions
			want.Findings = append(want.Findings, rep.Findings...)
			want.MaxRounds = max(want.MaxRounds, rep.MaxRounds)
			want.MaxDecideRound = max(want.MaxDecideRound, rep.MaxDecideRound)
			want.MaxFaults = max(want.MaxFaults, rep.MaxFaults)
			for r, k := range rep.RoundHistogram {
				want.RoundHistogram[r] += k
			}
		}
		if len(want.Findings) == 0 && base.Protocol == "" {
			t.Fatalf("%+v: no findings on an ablation; the comparison misses replay and shrinking", base)
		}
		for _, workers := range []int{1, 2, 4} {
			cfg := base
			cfg.Workers = workers
			rep, err := agree.Fuzz(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := flattenFuzzReport(rep), flattenFuzzReport(want); got != want {
				t.Errorf("%s workers=%d: campaign differs from its seeds fuzzed alone:\n--- campaign\n%s--- alone\n%s",
					base.Protocol, workers, got, want)
			}
		}
	}
}

// TestFuzzFaithfulProtocolsFindNothing fuzzes all three faithful protocols:
// no seed may violate consensus or the protocol's round bound.
func TestFuzzFaithfulProtocolsFindNothing(t *testing.T) {
	for _, p := range []agree.Protocol{agree.ProtocolCRW, agree.ProtocolEarlyStop, agree.ProtocolFloodSet} {
		rep, err := agree.Fuzz(agree.FuzzConfig{N: 12, Protocol: p, Seeds: 100, Workers: 0})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(rep.Findings) != 0 {
			t.Errorf("%s: %d findings, first: seed %d, %v (script %q)", p,
				len(rep.Findings), rep.Findings[0].Seed, rep.Findings[0].Err, rep.Findings[0].Script)
		}
		if rep.Seeds != 100 || rep.Executions < 100 {
			t.Errorf("%s: seeds=%d executions=%d, want 100 seeds and >= 100 executions", p, rep.Seeds, rep.Executions)
		}
		if len(rep.RoundHistogram) == 0 {
			t.Errorf("%s: empty round histogram", p)
		}
	}
}

// TestFuzzAblationFindingsReplayViaPublicAPI closes the loop through the
// public API: a finding's shrunk script, fed back through ReplayFaults,
// must reproduce the violation via agree.Run — and must cross-check on the
// lockstep engine.
func TestFuzzAblationFindingsReplayViaPublicAPI(t *testing.T) {
	rep, err := agree.Fuzz(agree.FuzzConfig{
		N: 4, T: 2, Seeds: 100, CommitAsData: true,
		CrashProb: 0.35, Shrink: true, CrossCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings on the commit-as-data ablation")
	}
	for _, f := range rep.Findings[:1] {
		if f.CrossCheckErr != nil {
			t.Fatalf("seed %d: cross-check: %v", f.Seed, f.CrossCheckErr)
		}
		if len(f.CrossChecked) == 0 {
			t.Fatalf("seed %d: cross-check silently skipped", f.Seed)
		}
		if f.ShrunkCrashes > 3 {
			t.Errorf("seed %d: shrunk script %q has %d crashes, want <= 3", f.Seed, f.Shrunk, f.ShrunkCrashes)
		}
		spec, err := agree.ReplayFaults(f.Shrunk)
		if err != nil {
			t.Fatalf("seed %d: ReplayFaults(%q): %v", f.Seed, f.Shrunk, err)
		}
		// The ablated protocol is not reachable through agree.Run's Config,
		// so replay the script on the faithful protocol instead: the same
		// schedule must execute cleanly (ReplayFaults is engine-agnostic),
		// and on the faithful algorithm consensus must hold — the violation
		// is the ablation's, not the schedule's.
		run, err := agree.Run(agree.Config{N: 4, Faults: spec})
		if err != nil {
			t.Fatalf("seed %d: replaying %q on the faithful protocol: %v", f.Seed, f.Shrunk, err)
		}
		if run.ConsensusErr != nil {
			t.Errorf("seed %d: faithful protocol violated consensus under replayed schedule %q: %v",
				f.Seed, f.Shrunk, run.ConsensusErr)
		}
	}
}

// TestFuzzReplayScript pins the replay entry point the CLI's -replay flag
// rides: the same script must violate agreement under the commit-as-data
// campaign config that produced it, pass on the faithful config, and be
// rejected — not silently replayed as failure-free — when it names a
// process the system does not have.
func TestFuzzReplayScript(t *testing.T) {
	const script = "p1@r1:000001/0"
	ablated := agree.FuzzConfig{N: 4, T: 2, CommitAsData: true}
	rep, err := agree.FuzzReplayScript(ablated, script, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "agreement") {
		t.Errorf("ablated replay verdict %v, want an agreement violation", rep.Err)
	}
	if rep.Transcript == "" || !strings.Contains(rep.Transcript, "crash") {
		t.Errorf("transcript lacks the crash:\n%s", rep.Transcript)
	}
	if len(rep.Crashed) != 1 {
		t.Errorf("crashed = %v, want exactly p1", rep.Crashed)
	}

	rep, err = agree.FuzzReplayScript(agree.FuzzConfig{N: 4, T: 2}, script, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Errorf("faithful replay verdict %v, want pass", rep.Err)
	}

	if _, err := agree.FuzzReplayScript(ablated, "p9@r1:/0", false); err == nil {
		t.Error("accepted a script crashing p9 in a 4-process run")
	}
	if _, err := agree.FuzzReplayScript(ablated, "bogus", false); err == nil {
		t.Error("accepted a malformed script")
	}
}

// TestFuzzConfigValidation covers the campaign-level config errors.
func TestFuzzConfigValidation(t *testing.T) {
	if _, err := agree.Fuzz(agree.FuzzConfig{N: 0}); err == nil {
		t.Error("accepted N=0")
	}
	if _, err := agree.Fuzz(agree.FuzzConfig{N: 4, Protocol: agree.ProtocolFloodSet, CommitAsData: true}); err == nil {
		t.Error("accepted a CRW ablation on FloodSet")
	}
	if _, err := agree.Fuzz(agree.FuzzConfig{N: 4, CrashProb: 1.5}); err == nil {
		t.Error("accepted crash probability 1.5")
	}
	// An unknown protocol is an error, not a panic in a campaign worker.
	if _, err := agree.Fuzz(agree.FuzzConfig{N: 4, Seeds: 2, Protocol: "bogus"}); err == nil {
		t.Error("accepted an unknown protocol")
	}
	if _, err := agree.FuzzReplayScript(agree.FuzzConfig{N: 4, Protocol: "bogus"}, "", false); err == nil {
		t.Error("replay accepted an unknown protocol")
	}
}

// TestReplayFaultsValidation covers script-level rejection at Run time.
func TestReplayFaultsValidation(t *testing.T) {
	if _, err := agree.ReplayFaults("bogus"); err == nil {
		t.Error("accepted a malformed script")
	}
	spec, err := agree.ReplayFaults("p9@r1:/0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agree.Run(agree.Config{N: 4, Faults: spec}); err == nil {
		t.Error("accepted a script crashing p9 in a 4-process run")
	}
	// The empty script is the failure-free schedule.
	spec, err = agree.ReplayFaults("")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := agree.Run(agree.Config{N: 4, Faults: spec})
	if err != nil || rep.ConsensusErr != nil || rep.Faults() != 0 {
		t.Errorf("empty script: rep=%+v err=%v", rep, err)
	}
}

// TestFuzzReportIsDeepEqualAcrossRuns re-runs one campaign twice with the
// same config and requires reflect.DeepEqual reports — determinism not just
// across worker counts but across invocations.
func TestFuzzReportIsDeepEqualAcrossRuns(t *testing.T) {
	cfg := agree.FuzzConfig{N: 6, T: 3, Seeds: 40, OrderAscending: true, Shrink: true, Workers: 4}
	a, err := agree.Fuzz(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := agree.Fuzz(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Errors are distinct fmt.Errorf values; compare the flattened rendering
	// first (covers messages), then the error-free skeleton deeply.
	if flattenFuzzReport(a) != flattenFuzzReport(b) {
		t.Fatalf("reports differ:\n%s\nvs\n%s", flattenFuzzReport(a), flattenFuzzReport(b))
	}
	stripErrs := func(rep *agree.FuzzReport) {
		for i := range rep.Findings {
			rep.Findings[i].Err = nil
			rep.Findings[i].ShrunkErr = nil
			rep.Findings[i].CrossCheckErr = nil
		}
	}
	stripErrs(a)
	stripErrs(b)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stripped reports not deeply equal: %+v vs %+v", a, b)
	}
}

// TestFuzzAllocsPerExec pins the per-execution allocations of the campaigns
// agreeperf's fuzz_campaign runs: a faithful batch and a commit-as-data batch
// that shrinks its findings. Each worker's fuzz.Runner recycles the
// recorder, the replayer, the masks and the shrink candidates, its systems
// are reset instead of built and the engine recycles its result, so a
// passing seed pays only its profiling labels and a finding only what the
// report keeps of it: its scripts' text and its detached verdicts.
func TestFuzzAllocsPerExec(t *testing.T) {
	campaigns := []agree.FuzzConfig{
		{N: 16, T: 5, CrashProb: 0.25, Laws: true, Seeds: 200, Workers: 1},
		{N: 8, CommitAsData: true, Shrink: true, Laws: true, Seeds: 200, Workers: 1},
	}
	execs := 0
	for _, cfg := range campaigns {
		rep, err := agree.Fuzz(cfg)
		if err != nil {
			t.Fatal(err)
		}
		execs += rep.Executions
	}
	perExec := testing.AllocsPerRun(5, func() {
		for _, cfg := range campaigns {
			if _, err := agree.Fuzz(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(execs)
	// Measured 1.72 (1.73 under -race).
	const maxPerExec = 1.85
	if perExec > maxPerExec {
		t.Errorf("fuzz campaigns allocate %.2f allocs/exec over %d executions, want <= %.2f", perExec, execs, maxPerExec)
	}
}

// TestFuzzFindsAscendingOrderBoundViolations pins the ablation oracle: the
// ascending-commit-order mutation must surface round-bound findings only.
func TestFuzzFindsAscendingOrderBoundViolations(t *testing.T) {
	rep, err := agree.Fuzz(agree.FuzzConfig{
		N: 5, T: 3, Seeds: 300, OrderAscending: true, CrashProb: 0.35, Shrink: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings on the ascending-order ablation")
	}
	for _, f := range rep.Findings {
		if !strings.Contains(f.Err.Error(), "round bound") {
			t.Errorf("seed %d: %v, want a round-bound violation", f.Seed, f.Err)
		}
	}
}

// TestFuzzKeptVerdictsRenderTheirOwnRun: a campaign worker's engine reruns
// for every later seed, replay and shrink candidate, so a finding's verdicts
// must keep the runs they judged. Each Err and ShrunkErr renders exactly as
// a fresh FuzzReplayScript of its Script and Shrunk.
func TestFuzzKeptVerdictsRenderTheirOwnRun(t *testing.T) {
	cfg := agree.FuzzConfig{N: 5, T: 3, Seeds: 60, CommitAsData: true, CrashProb: 0.35,
		Shrink: true, Workers: 1}
	rep, err := agree.Fuzz(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) < 3 {
		t.Fatalf("%d findings on the commit-as-data ablation, want at least 3", len(rep.Findings))
	}
	distinct := map[string]bool{}
	for _, f := range rep.Findings {
		for _, kept := range []struct {
			script string
			err    error
		}{{f.Script, f.Err}, {f.Shrunk, f.ShrunkErr}} {
			replay, err := agree.FuzzReplayScript(cfg, kept.script, false)
			if err != nil {
				t.Fatalf("seed %d: replaying %q: %v", f.Seed, kept.script, err)
			}
			if got, want := fmt.Sprint(kept.err), fmt.Sprint(replay.Err); got != want {
				t.Errorf("seed %d, script %q: kept verdict %q, replay %q", f.Seed, kept.script, got, want)
			}
			distinct[fmt.Sprint(replay.Err)] = true
		}
	}
	if len(distinct) < 2 {
		t.Errorf("every finding renders %v: a stale verdict would go unnoticed", distinct)
	}
}
