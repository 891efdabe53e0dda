package agree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/simulate"
)

// referenceOutcomeMaps is the report translation as it was written while
// engine results were map-shaped: one copy loop per map, the macro-round
// conversion inline, Omissive created on first use. The engine maps are
// rebuilt from the outcomes the way the engines built them (Omissive nil
// when nobody omitted).
func referenceOutcomeMaps(res *sim.Result, simulateN int) (map[int]int64, map[int]int, map[int]int, map[int]int) {
	decisions := map[sim.ProcID]sim.Value{}
	decideRound := map[sim.ProcID]sim.Round{}
	crashed := map[sim.ProcID]sim.Round{}
	var omissive map[sim.ProcID]int
	for i, o := range res.Procs {
		id := sim.ProcID(i + 1)
		if o.DecideRound != 0 {
			decisions[id], decideRound[id] = o.Value, o.DecideRound
		}
		if o.CrashRound != 0 {
			crashed[id] = o.CrashRound
		}
		if o.OmissiveRounds != 0 {
			if omissive == nil {
				omissive = map[sim.ProcID]int{}
			}
			omissive[id] = o.OmissiveRounds
		}
	}

	repDecisions := make(map[int]int64, len(decisions))
	repDecideRound := make(map[int]int, len(decideRound))
	repCrashed := make(map[int]int, len(crashed))
	var repOmissive map[int]int
	for id, v := range decisions {
		repDecisions[int(id)] = int64(v)
		dr := decideRound[id]
		if simulateN > 0 {
			dr = simulate.MacroRound(dr, simulateN)
		}
		repDecideRound[int(id)] = int(dr)
	}
	for id, r := range crashed {
		repCrashed[int(id)] = int(r)
	}
	for id, c := range omissive {
		if repOmissive == nil {
			repOmissive = make(map[int]int, len(omissive))
		}
		repOmissive[int(id)] = c
	}
	return repDecisions, repDecideRound, repCrashed, repOmissive
}

// TestPropertyOutcomeMapsMatchesReference: on random outcomes, with and
// without the Section 2.2 macro-round conversion, the single translation
// builds exactly the maps the old copy loops built — including a nil
// Omissive when nobody omitted.
func TestPropertyOutcomeMapsMatchesReference(t *testing.T) {
	prop := func(seed int64, nRaw uint8, simulated bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%16)
		res := &sim.Result{Procs: make([]sim.Outcome, n)}
		omitProb := rng.Intn(3) // 0: nobody omits
		for i := range res.Procs {
			o := &res.Procs[i]
			if rng.Intn(4) > 0 {
				o.Value, o.DecideRound = sim.Value(rng.Int63n(1000)), sim.Round(1+rng.Intn(5*n))
			}
			if rng.Intn(4) == 0 {
				o.CrashRound = sim.Round(1 + rng.Intn(5*n))
			}
			if omitProb > 0 && rng.Intn(4) < omitProb {
				o.OmissiveRounds = 1 + rng.Intn(4)
			}
		}
		stride, simulateN := sim.Round(1), 0
		if simulated {
			stride, simulateN = sim.Round(simulate.Stride(n)), n
		}
		d, dr, c, om := outcomeMaps(res, stride)
		wd, wdr, wc, wom := referenceOutcomeMaps(res, simulateN)
		if !reflect.DeepEqual(d, wd) || !reflect.DeepEqual(dr, wdr) ||
			!reflect.DeepEqual(c, wc) || !reflect.DeepEqual(om, wom) {
			t.Logf("seed %d n=%d simulated=%t:\n got %v %v %v %v\nwant %v %v %v %v",
				seed, n, simulated, d, dr, c, om, wd, wdr, wc, wom)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
