package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// testPs are the percentiles the property tests ask for, highest first as
// the service asks for them.
var testPs = []float64{100, 99.9, 99, 50, 0.1, 0}

// reference is the copy-and-sort nearest-rank definition Percentiles must
// reproduce, given the sorted copy.
func reference(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// checkPercentiles compares Percentiles on a copy of v against the reference
// for every p of ps, and checks the copy is still a permutation of v.
func checkPercentiles(t *testing.T, name string, v, ps []float64) {
	t.Helper()
	sorted := slices.Clone(v)
	sort.Float64s(sorted)
	got := make([]float64, len(ps))
	w := slices.Clone(v)
	Percentiles(w, ps, got)
	for i, p := range ps {
		if want := reference(sorted, p); got[i] != want {
			t.Fatalf("%s, n=%d: p%g = %g, want %g", name, len(v), p, got[i], want)
		}
	}
	sort.Float64s(w)
	if !slices.Equal(w, sorted) {
		t.Fatalf("%s, n=%d: Percentiles lost or invented values", name, len(v))
	}
}

// shape is one named input of the property tests.
type shape struct {
	name string
	v    []float64
}

// shapes returns the inputs of size n the property tests cover.
func shapes(n int, r *rand.Rand) []shape {
	var out []shape
	add := func(name string, f func(i int) float64) {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		out = append(out, shape{name, v})
	}
	add("random", func(int) float64 { return r.Float64() })
	add("duplicates", func(int) float64 { return float64(r.Intn(5)) })
	add("sorted", func(i int) float64 { return float64(i) })
	add("reversed", func(i int) float64 { return float64(n - i) })
	add("all-equal", func(int) float64 { return 7 })
	add("organ-pipe", func(i int) float64 { return float64(min(i, n-i)) })
	// A service batch: commands that arrived in order commit together, so
	// their latencies fall in a run of 1..32, and the runs drift upwards.
	runLeft, base := 0, 0.0
	add("descending-runs", func(i int) float64 {
		if runLeft == 0 {
			runLeft, base = 1+r.Intn(32), float64(i)+40*r.Float64()
		}
		runLeft--
		base -= r.Float64()
		return base
	})
	return out
}

// TestPercentilesMatchSortedReference checks every percentile of testPs
// against copy-and-sort for every n up to 2000 and every input shape. The
// code under test is sequential, so a race build walks every n up to 64 and
// then every seventh.
func TestPercentilesMatchSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	step := 1
	if testing.Short() {
		step = 37
	}
	for n := 0; n <= 2000; n += step {
		if raceEnabled && n >= 64 {
			step = max(step, 7)
		}
		for _, s := range shapes(n, r) {
			checkPercentiles(t, s.name, s.v, testPs)
		}
	}
}

// TestPercentilesAnyOrder asks for the same percentiles in ascending and in
// shuffled order, and for repeated ones: the answer must not depend on it.
func TestPercentilesAnyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 13, 100, 1000, 4097} {
		for _, s := range shapes(n, r) {
			asc := slices.Clone(testPs)
			slices.Reverse(asc)
			checkPercentiles(t, s.name+"/ascending", s.v, asc)
			mixed := []float64{50, 99.9, 0.1, 100, 50, 0, 99, 99.9}
			checkPercentiles(t, s.name+"/mixed", s.v, mixed)
		}
	}
}

// musserKiller returns Musser's median-of-3 killer of length n (even): the
// first half alternates 1, 3, 5, ... with k+1, k+3, ... and the second half
// is 2, 4, ..., 2k. With the pivot the median of the first, middle and last
// value, every partition step splits off only two values.
func musserKiller(n int) []float64 {
	k := n / 2
	v := make([]float64, n)
	for i := 0; i < k; i++ {
		if i%2 == 0 {
			v[i] = float64(i + 1)
		} else {
			v[i] = float64(k + i)
		}
		v[k+i] = float64(2 * (i + 1))
	}
	return v
}

// TestPercentilesSortFallback runs the median-of-3 killer at n = 1<<16: the
// partition budget runs out, the range is sorted instead, and the answer
// still matches the reference.
func TestPercentilesSortFallback(t *testing.T) {
	const n = 1 << 16
	v := musserKiller(n)
	if !selectRank(slices.Clone(v), 0, n, n-1) {
		t.Fatal("the killer input did not exhaust the partition budget; the sort fallback went untested")
	}
	checkPercentiles(t, "killer", v, testPs)
}

// TestPercentilesAllocateNothing pins the service's use: one call on a
// buffer it owns allocates nothing.
func TestPercentilesAllocateNothing(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	v := make([]float64, 10000)
	ps := []float64{99.9, 99, 50}
	out := make([]float64, len(ps))
	if a := testing.AllocsPerRun(20, func() {
		for i := range v {
			v[i] = r.Float64()
		}
		Percentiles(v, ps, out)
	}); a != 0 {
		t.Errorf("Percentiles allocates %.1f times, want 0", a)
	}
}
