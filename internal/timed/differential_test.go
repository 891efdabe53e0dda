package timed_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/consensus/earlystop"
	"repro/internal/consensus/floodset"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/sim"
	"repro/internal/timed"
	"repro/internal/trace"
)

// randomMixedSpec builds a random but order-insensitive mixed
// crash+omission adversary: a fault script of crashes (legal truncations
// only) plus omissions strictly before any crash of the same process, each
// dropping something. Its replay is a pure function of (process, round), so
// both engines see identical fault behaviour.
func randomMixedSpec(t *testing.T, rng *rand.Rand, n int) sim.Adversary {
	var events []string
	crashRound := map[int]int{}
	for _, i := range rng.Perm(n)[:rng.Intn(n)] { // 0..n-1 crashes: somebody survives
		p, r, k := i+1, rng.Intn(n)+2, rng.Intn(n)
		data, ctrl := fmt.Sprintf("%0*b", k, rng.Int63n(1<<k)), 0
		if rng.Intn(2) == 0 {
			data, ctrl = strings.Repeat("1", n), rng.Intn(n)
		}
		crashRound[p] = r
		events = append(events, fmt.Sprintf("p%d@r%d:%s/%d", p, r, data, ctrl))
	}
	drop := strings.Repeat("0", n)
	for p := 1; p <= n; p++ {
		if rng.Intn(3) != 0 {
			continue
		}
		maxRound := n + 1
		if r, ok := crashRound[p]; ok {
			maxRound = r - 1
		}
		r := rng.Intn(maxRound) + 1
		omission := "so:" + drop + "/" + drop
		switch rng.Intn(3) {
		case 1:
			omission = "ro:" + drop
		case 2:
			omission = "ro:" + fmt.Sprintf("%0*b", n, rng.Int63n(1<<n-1)) // a 0 bit: drops a sender
		}
		events = append(events, fmt.Sprintf("p%d@r%d:%s", p, r, omission))
	}
	s, err := fuzz.Parse(strings.Join(events, ";"))
	if err != nil {
		t.Fatal(err)
	}
	return s.Adversary()
}

// diffResults compares every semantic field of two engine results except
// SimTime (the one field only continuous-time engines produce).
func diffResults(t *testing.T, label string, got, want *sim.Result) bool {
	t.Helper()
	ok := true
	if got.Rounds != want.Rounds {
		t.Logf("%s: rounds %d vs %d", label, got.Rounds, want.Rounds)
		ok = false
	}
	if len(got.Procs) != len(want.Procs) {
		t.Logf("%s: %d vs %d processes", label, len(got.Procs), len(want.Procs))
		return false
	}
	for i, o := range want.Procs {
		if got.Procs[i] != o {
			t.Logf("%s: p%d outcome %+v vs %+v", label, i+1, got.Procs[i], o)
			ok = false
		}
	}
	if got.Counters != want.Counters {
		t.Logf("%s: counters %s vs %s", label, got.Counters.String(), want.Counters.String())
		ok = false
	}
	if got.Ledger != want.Ledger {
		t.Logf("%s: ledger %+v vs %+v", label, got.Ledger, want.Ledger)
		ok = false
	}
	return ok
}

// TestTimedDifferentialAgainstDeterministic is the engine differential the
// timed substrate must pass to be registered at all: for random mixed
// crash+omission schedules across all three protocols, the continuous-time
// execution under any within-bound latency model is bit-identical to the
// deterministic round engine — same decisions, decide rounds, crash and
// omission bookkeeping, traffic counters, message ledger, and run verdict.
// Only SimTime differs (it is the point of the engine). Every timed case also
// runs with a transcript attached, which must not change its Result — nor
// may it for an out-of-bound model or core's CommitAsData ablation (two data
// messages on one channel), checked trace-on against trace-off only.
// scripts/verify.sh runs this under -race.
func TestTimedDifferentialAgainstDeterministic(t *testing.T) {
	latencies := []timed.LatencyModel{
		nil, // engine default
		timed.Fixed{D: 2, Delta: 0.5},
		timed.Jitter{D: 1, Delta: 0.2, Floor: 0.1, Spread: 0.85, Seed: 5},
	}
	prop := func(seed int64, nRaw, protoRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 3
		props := make([]sim.Value, n)
		for i := range props {
			props[i] = sim.Value(rng.Intn(1000))
		}
		model := sim.ModelExtended
		mkProcs := func() []sim.Process {
			switch protoRaw % 3 {
			case 1:
				return earlystop.NewSystem(props, n-1, 64)
			case 2:
				return floodset.NewSystem(props, n-1, 64)
			default:
				return core.NewSystem(props, core.Options{})
			}
		}
		if protoRaw%3 != 0 {
			model = sim.ModelClassic
		}
		horizon := sim.Round(n + 2)

		mkAdv := func() sim.Adversary {
			return randomMixedSpec(t, rand.New(rand.NewSource(seed)), n)
		}

		// runTimed runs one timed case untraced and traced and returns the
		// untraced outcome, or ok=false when the transcript changed it.
		runTimed := func(lat timed.LatencyModel, procs func() []sim.Process) (res *sim.Result, err error, ok bool) {
			var runs [2]struct {
				res *sim.Result
				err error
			}
			for i, log := range []*trace.Log{nil, trace.New()} {
				eng, err := timed.New(timed.Config{Model: model, Horizon: horizon, Latency: lat, Trace: log},
					procs(), mkAdv())
				if err != nil {
					t.Log(err)
					return nil, nil, false
				}
				runs[i].res, runs[i].err = eng.Run()
			}
			if !reflect.DeepEqual(runs[0].res, runs[1].res) || fmt.Sprint(runs[0].err) != fmt.Sprint(runs[1].err) {
				t.Logf("seed=%d n=%d proto=%d lat=%+v: traced run diverged: %+v (%v) vs %+v (%v)",
					seed, n, protoRaw%3, lat, *runs[1].res, runs[1].err, *runs[0].res, runs[0].err)
				return nil, nil, false
			}
			return runs[0].res, runs[0].err, true
		}

		ref, err := sim.NewEngine(sim.Config{Model: model, Horizon: horizon}, mkProcs(), mkAdv())
		if err != nil {
			t.Log(err)
			return false
		}
		want, wantErr := ref.Run()

		for li, lat := range latencies {
			got, gotErr, ok := runTimed(lat, mkProcs)
			if !ok {
				return false
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Logf("seed=%d n=%d proto=%d lat=%d: err %v vs %v", seed, n, protoRaw%3, li, gotErr, wantErr)
				return false
			}
			if got.Counters.Late != 0 {
				t.Logf("seed=%d: within-bound model %d produced %d late messages", seed, li, got.Counters.Late)
				return false
			}
			if got.SimTime <= 0 {
				t.Logf("seed=%d: timed engine reported SimTime %g", seed, got.SimTime)
				return false
			}
			if !diffResults(t, "timed vs deterministic", got, want) {
				t.Logf("seed=%d n=%d proto=%d lat=%d diverged", seed, n, protoRaw%3, li)
				return false
			}
		}
		if _, _, ok := runTimed(timed.Jitter{D: 1, Delta: 0.2, Floor: 0.3, Spread: 1.2, Seed: seed}, mkProcs); !ok {
			return false
		}
		commitAsData := func() []sim.Process { return core.NewSystem(props, core.Options{CommitAsData: true}) }
		_, _, ok := runTimed(latencies[2], commitAsData)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
