package lockstep_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/agree"
	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/lockstep"
	"repro/internal/sim"
)

// randomScript generates a random but deterministic (order-insensitive)
// scripted adversary: a set of processes, each with a crash round and a
// legal truncation. Script adversaries are pure functions of (process,
// round), so both engines see identical fault behaviour regardless of
// scheduling.
func randomScript(rng *rand.Rand, n int) *adversary.Script {
	plans := map[sim.ProcID]adversary.CrashPlan{}
	crashes := rng.Intn(n) // 0..n-1 crashes
	perm := rng.Perm(n)
	for i := 0; i < crashes; i++ {
		p := sim.ProcID(perm[i] + 1)
		cp := adversary.CrashPlan{Round: sim.Round(rng.Intn(n) + 1)}
		// Legal truncations only: either a data-step crash (mask, no
		// control) or a control-step crash (all data, prefix).
		if rng.Intn(2) == 0 {
			mask := make([]bool, n) // oversized masks are truncated positionally
			for j := range mask {
				mask[j] = rng.Intn(2) == 1
			}
			cp.DataMask = mask[:rng.Intn(n)]
			cp.CtrlPrefix = 0
		} else {
			cp.DeliverAllData = true
			cp.CtrlPrefix = rng.Intn(n + 1)
		}
		plans[p] = cp
	}
	return adversary.NewScript(plans)
}

// TestDifferentialEnginesUnderRandomScripts fuzzes both engines with the
// same randomly scripted crash schedules and requires bit-identical results:
// same rounds, decisions, decide rounds, crash sets and traffic counters.
// Both engines run sim.Kernel's phases, so this checks lockstep's
// scheduling — shards, barrier, mail routing, accumulator merge; the round
// semantics themselves are checked against internal/harness's reference
// model.
// The GoroutinePerProcess subtest runs each lockstep job at GOMAXPROCS = n,
// so every process gets a shard goroutine of its own, the runtime's old
// shape. scripts/verify.sh runs this under -race -count=10.
func TestDifferentialEnginesUnderRandomScripts(t *testing.T) {
	for _, perProcess := range []bool{false, true} {
		name := "Shards"
		if perProcess {
			name = "GoroutinePerProcess"
		}
		t.Run(name, func(t *testing.T) { differentialRandomScripts(t, perProcess) })
	}
}

func differentialRandomScripts(t *testing.T, perProcess bool) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 3
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = sim.Value(rng.Intn(1000))
		}
		if perProcess {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
		}

		mk := func() (sim.Adversary, []sim.Process) {
			return randomScript(rand.New(rand.NewSource(seed)), n),
				core.NewSystem(props, core.Options{})
		}

		adv1, procs1 := mk()
		eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended, Horizon: sim.Round(n + 2)},
			procs1, adv1)
		if err != nil {
			return false
		}
		want, err := eng.Run()
		if err != nil {
			return false
		}

		adv2, procs2 := mk()
		rt, err := lockstep.New(lockstep.Config{Model: sim.ModelExtended, Horizon: sim.Round(n + 2)},
			procs2, adv2)
		if err != nil {
			return false
		}
		defer rt.Close()
		got, err := rt.Run()
		if err != nil {
			return false
		}

		if got.Rounds != want.Rounds || !slices.Equal(got.Procs, want.Procs) {
			t.Logf("seed=%d n=%d: rounds %d/%d outcomes %+v/%+v",
				seed, n, got.Rounds, want.Rounds, got.Procs, want.Procs)
			return false
		}
		return got.Counters.DataMsgs == want.Counters.DataMsgs &&
			got.Counters.CtrlMsgs == want.Counters.CtrlMsgs &&
			got.Counters.DataBits == want.Counters.DataBits &&
			got.Counters.DroppedData == want.Counters.DroppedData &&
			got.Counters.DroppedCtrl == want.Counters.DroppedCtrl
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// randomAgreeScript mirrors randomScript at the public API level: a random
// but order-insensitive agree.ScriptedFaults spec, legal for every protocol
// (oversized masks are truncated positionally; control prefixes clamp to the
// plan's control sequence, which is empty for the classic protocols).
func randomAgreeScript(rng *rand.Rand, n int) agree.FaultSpec {
	plans := map[int]agree.CrashPlan{}
	crashes := rng.Intn(n)
	perm := rng.Perm(n)
	for i := 0; i < crashes; i++ {
		cp := agree.CrashPlan{Round: rng.Intn(n) + 1}
		if rng.Intn(2) == 0 {
			mask := make([]bool, rng.Intn(n))
			for j := range mask {
				mask[j] = rng.Intn(2) == 1
			}
			cp.DataMask = mask
		} else {
			cp.DeliverAllData = true
			// A control sequence has at most n-1 destinations; larger
			// prefixes are rejected by FaultSpec validation.
			cp.CtrlPrefix = rng.Intn(n)
		}
		plans[perm[i]+1] = cp
	}
	return agree.ScriptedFaults(plans)
}

// TestCrossCheckDifferentialAllProtocols extends the engine differential
// beyond CRW to ProtocolEarlyStop and ProtocolFloodSet, driven through the
// sweep harness's CrossCheck mode: every configuration runs on the
// deterministic engine and is re-executed on every other registered engine
// (the lockstep runtime and the continuous-time timed engine), and any
// semantic divergence (rounds, decisions, crash set, counters) fails the
// item. scripts/verify.sh runs this under -race.
func TestCrossCheckDifferentialAllProtocols(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 3
		faults := randomAgreeScript(rng, n)
		configs := []agree.Config{
			{N: n, Protocol: agree.ProtocolCRW, Faults: faults},
			{N: n, Protocol: agree.ProtocolEarlyStop, Faults: faults},
			{N: n, Protocol: agree.ProtocolFloodSet, Faults: faults},
		}
		sr := agree.Sweep(configs, agree.SweepOptions{Workers: 3, CrossCheck: true})
		for i, item := range sr.Items {
			if item.Err != nil {
				t.Logf("seed=%d n=%d %s: %v", seed, n, configs[i].Protocol, item.Err)
				return false
			}
			if len(item.CrossChecked) == 0 {
				t.Logf("seed=%d n=%d %s: cross-check silently skipped", seed, n, configs[i].Protocol)
				return false
			}
			if item.Report.ConsensusErr != nil {
				t.Logf("seed=%d n=%d %s: %v", seed, n, configs[i].Protocol, item.Report.ConsensusErr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCrossCheckDifferentialFuzzSchedules differential-tests 100
// fuzzer-generated random schedules: each is recorded by the fuzz package's
// random-walk adversary on the deterministic engine, converted to the
// public replay format, and swept with CrossCheck, which re-executes every
// configuration on each other registered engine — the lockstep runtime and
// the timed engine — and fails the item on any semantic divergence. Unlike randomScript above, these schedules come from the
// exact generator the fuzzing campaigns use — masks sized to the real send
// plans, legal crash points only — so this is the differential gate for
// the fuzzer's replay path. scripts/verify.sh runs this under -race.
func TestCrossCheckDifferentialFuzzSchedules(t *testing.T) {
	const schedules = 100
	eng, err := harness.New(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	configs := make([]agree.Config, 0, schedules)
	for seed := int64(0); len(configs) < schedules; seed++ {
		n := 3 + int(seed%8) // 3..10 processes
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = sim.Value(100 + i)
		}
		factory := func() fuzz.Target {
			return fuzz.Target{
				Model:     sim.ModelExtended,
				Horizon:   sim.Round(n + 2),
				Procs:     core.NewSystem(props, core.Options{}),
				Proposals: props,
			}
		}
		out, err := fuzz.RunSeed(eng, factory, fuzz.ConsensusOracle(check.BoundFPlus1), seed,
			fuzz.Options{Gen: fuzz.Gen{T: n - 1, CrashProb: 0.3}})
		if err != nil {
			t.Fatal(err)
		}
		if out.Err != nil {
			t.Fatalf("seed %d: faithful algorithm violated %v (script %q)", seed, out.Err, out.Script.String())
		}
		spec, err := agree.ReplayFaults(out.Script.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		configs = append(configs, agree.Config{N: n, Faults: spec})
	}
	sr := agree.Sweep(configs, agree.SweepOptions{Workers: 4, CrossCheck: true})
	for i, item := range sr.Items {
		if item.Err != nil {
			t.Errorf("schedule %d (n=%d): %v", i, configs[i].N, item.Err)
			continue
		}
		if len(item.CrossChecked) == 0 {
			t.Errorf("schedule %d (n=%d): cross-check silently skipped", i, configs[i].N)
		}
		if item.Report.ConsensusErr != nil {
			t.Errorf("schedule %d (n=%d): %v", i, configs[i].N, item.Report.ConsensusErr)
		}
	}
	if sr.Aggregate.CrossChecked != schedules {
		t.Errorf("cross-checked %d of %d schedules", sr.Aggregate.CrossChecked, schedules)
	}
}

// TestCrossCheckDifferentialOmissionSchedules is the omission-model engine
// differential: 100 fuzzer-generated mixed crash+omission schedules — from
// the exact recording walk the omission campaigns use — are converted to the
// public replay format and swept with CrossCheck, so every schedule runs on
// the deterministic engine and is re-executed on the lockstep runtime; any
// semantic divergence (rounds, decisions, crash set, omissive set, counters)
// fails the item. Consensus may legitimately break under omissions (that is
// the fault model's point), so the test asserts only cross-engine equality,
// including equality of the consensus verdict. Schedules that starve
// termination are skipped (both engines would error before producing a
// comparable report). scripts/verify.sh runs this under -race.
func TestCrossCheckDifferentialOmissionSchedules(t *testing.T) {
	const schedules = 100
	eng, err := harness.New(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	configs := make([]agree.Config, 0, schedules)
	withOmissions := 0
	for seed := int64(0); len(configs) < schedules; seed++ {
		n := 3 + int(seed%8) // 3..10 processes
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = sim.Value(100 + i)
		}
		factory := func() fuzz.Target {
			return fuzz.Target{
				Model:     sim.ModelExtended,
				Horizon:   sim.Round(n + 2),
				Procs:     core.NewSystem(props, core.Options{}),
				Proposals: props,
			}
		}
		out, err := fuzz.RunSeed(eng, factory, fuzz.ConsensusOracle(nil), seed, fuzz.Options{
			Gen: fuzz.Gen{T: n - 1, CrashProb: 0.15,
				SendOmitProb: 0.12, RecvOmitProb: 0.08, MaxOmissive: n - 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := agree.ReplayFaults(out.Script.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := agree.Config{N: n, Faults: spec}
		// Horizon exhaustion yields an engine error, not a report; those
		// schedules cannot be compared through the sweep and are skipped.
		if _, err := agree.Run(cfg); err != nil {
			continue
		}
		if out.Omissive > 0 {
			withOmissions++
		}
		configs = append(configs, cfg)
	}
	if withOmissions < schedules/4 {
		t.Fatalf("only %d of %d schedules carry omission events; the differential is not exercising the omission model", withOmissions, schedules)
	}
	sr := agree.Sweep(configs, agree.SweepOptions{Workers: 4, CrossCheck: true})
	for i, item := range sr.Items {
		if item.Err != nil {
			t.Errorf("schedule %d (n=%d, %v): %v", i, configs[i].N, configs[i].Faults, item.Err)
			continue
		}
		if len(item.CrossChecked) == 0 {
			t.Errorf("schedule %d (n=%d): cross-check silently skipped", i, configs[i].N)
		}
	}
	if sr.Aggregate.CrossChecked != schedules {
		t.Errorf("cross-checked %d of %d schedules", sr.Aggregate.CrossChecked, schedules)
	}
}

// randomOmissionSpec builds a random but order-insensitive mixed
// crash+omission fault script at the public API level: a few crashes that
// let every data message and a control prefix escape, plus per-round
// omissions (send masks, receive masks, full drops) strictly before the
// process's crash round, each dropping something, so ReplayFaults accepts
// every draw.
func randomOmissionSpec(t *testing.T, rng *rand.Rand, n int) agree.FaultSpec {
	var events []string
	crashRound := map[int]int{}
	perm := rng.Perm(n)
	for _, i := range perm[:rng.Intn(n/2)] {
		crashRound[i+1] = rng.Intn(n) + 2
		events = append(events, fmt.Sprintf("p%d@r%d:%s/%d", i+1, crashRound[i+1], strings.Repeat("1", n), rng.Intn(n)))
	}
	drop, omits := strings.Repeat("0", n), map[[2]int]bool{}
	for range 1 + rng.Intn(n-1) {
		p := perm[rng.Intn(n)] + 1
		maxRound := n + 1
		if r, ok := crashRound[p]; ok {
			maxRound = r - 1
		}
		round := rng.Intn(maxRound) + 1
		if omits[[2]int{p, round}] {
			continue
		}
		omits[[2]int{p, round}] = true
		omission := "so:" + drop + "/" + drop
		switch rng.Intn(4) {
		case 1:
			omission = "ro:" + drop
		case 2:
			mask := dropMask(rng, 1+rng.Intn(n))
			omission = "so:" + mask + "/" + mask
		case 3:
			omission = "ro:" + dropMask(rng, n)
		}
		events = append(events, fmt.Sprintf("p%d@r%d:%s", p, round, omission))
	}
	spec, err := agree.ReplayFaults(strings.Join(events, ";"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// dropMask draws a delivered-mask of k >= 1 positions that drops at least
// one: a k-bit number below 2^k - 1 has a 0 bit.
func dropMask(rng *rand.Rand, k int) string { return fmt.Sprintf("%0*b", k, rng.Int63n(1<<k-1)) }

// TestCrossCheckDifferentialFaultScripts property-tests replayed fault
// scripts across both engines and all three protocols: any semantic
// divergence between the deterministic and lockstep execution of the same
// mixed crash+omission script fails the item. scripts/verify.sh runs this
// under -race.
func TestCrossCheckDifferentialFaultScripts(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 3
		faults := randomOmissionSpec(t, rng, n)
		configs := []agree.Config{
			{N: n, Protocol: agree.ProtocolCRW, Faults: faults},
			{N: n, Protocol: agree.ProtocolEarlyStop, Faults: faults},
			{N: n, Protocol: agree.ProtocolFloodSet, Faults: faults},
		}
		sr := agree.Sweep(configs, agree.SweepOptions{Workers: 3, CrossCheck: true})
		for i, item := range sr.Items {
			if item.Err != nil {
				// Omission schedules may starve termination; a primary-engine
				// error is acceptable, but any cross-check error — a
				// divergence, or a reference engine failing where the primary
				// succeeded — is not.
				if strings.Contains(item.Err.Error(), "crosscheck") {
					t.Logf("seed=%d n=%d %s: %v", seed, n, configs[i].Protocol, item.Err)
					return false
				}
				continue
			}
			if len(item.CrossChecked) == 0 {
				t.Logf("seed=%d n=%d %s: cross-check silently skipped", seed, n, configs[i].Protocol)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
