package agree

import (
	"errors"
	"reflect"
	"testing"
)

// foundAt returns a worker's findings at the given campaign indices of a
// campaign whose first seed is 100.
func foundAt(at ...int) []FuzzFinding {
	out := make([]FuzzFinding, len(at))
	for k, i := range at {
		out[k] = FuzzFinding{Seed: int64(100 + i)}
	}
	return out
}

// TestMergeFuzzOrdersByCampaignIndex holds the merge of per-worker
// accumulations to what a per-seed merge in campaign order would report:
// interleaved findings come out by index, summaries and histograms add up,
// the lowest-index fatal error wins whichever worker hit it, and a campaign
// without findings keeps Findings nil.
func TestMergeFuzzOrdersByCampaignIndex(t *testing.T) {
	ws := []fuzzWorker{
		{executions: 5, rounds: 4, maxDecide: 3, faults: 2, hist: []int{0, 1, 2}, found: foundAt(1, 4, 9)},
		{executions: 7, rounds: 6, maxDecide: 2, omissive: 1, hist: []int{0, 0, 3, 0, 1}, found: foundAt(0, 2, 3, 10)},
		{executions: 1, faults: 3},
		{executions: 2, hist: []int{0, 1}, found: foundAt(5)},
	}
	rep, err := mergeFuzz(12, ws)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []int64
	for _, f := range rep.Findings {
		seeds = append(seeds, f.Seed)
	}
	if want := []int64{100, 101, 102, 103, 104, 105, 109, 110}; !reflect.DeepEqual(seeds, want) {
		t.Errorf("findings at seeds %v, want %v", seeds, want)
	}
	want := FuzzReport{Seeds: 12, Executions: 15, MaxRounds: 6, MaxDecideRound: 3, MaxFaults: 3,
		MaxOmissionFaulty: 1, RoundHistogram: map[int]int{1: 2, 2: 5, 4: 1}}
	rep.Findings = nil
	if !reflect.DeepEqual(*rep, want) {
		t.Errorf("merged summary %+v, want %+v", *rep, want)
	}

	first, later := errors.New("index 3"), errors.New("index 8")
	ws = []fuzzWorker{
		{found: foundAt(1), fatal: later, fatalAt: 8},
		{found: foundAt(0)},
		{fatal: first, fatalAt: 3},
	}
	if rep, err := mergeFuzz(12, ws); err != first || rep != nil {
		t.Errorf("merge with fatal errors at indices 8 and 3: report %v, error %v, want the index-3 error alone", rep, err)
	}

	rep, err = mergeFuzz(3, []fuzzWorker{{executions: 2, hist: []int{0, 2}}, {executions: 1, hist: []int{0, 0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Findings != nil {
		t.Errorf("a campaign without findings reports Findings %#v, want nil", rep.Findings)
	}
	if want := map[int]int{1: 2, 2: 1}; !reflect.DeepEqual(rep.RoundHistogram, want) {
		t.Errorf("histogram %v, want %v", rep.RoundHistogram, want)
	}
}
