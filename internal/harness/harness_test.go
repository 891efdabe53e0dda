package harness_test

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
)

func TestRegistryHasBuiltinEngines(t *testing.T) {
	kinds := harness.Kinds()
	if len(kinds) != 3 || kinds[0] != harness.KindDeterministic ||
		kinds[1] != harness.KindLockstep || kinds[2] != harness.KindTimed {
		t.Fatalf("kinds = %v, want [deterministic lockstep timed]", kinds)
	}
	det, ok := harness.Lookup(harness.KindDeterministic)
	if !ok || !det.Trace || !det.Deterministic || !det.Reusable || det.Timed {
		t.Errorf("deterministic caps = %+v, want trace+deterministic+reusable", det)
	}
	ls, ok := harness.Lookup(harness.KindLockstep)
	if !ok || ls.Trace || ls.Deterministic || !ls.Reusable || ls.Timed {
		t.Errorf("lockstep caps = %+v, want reusable only", ls)
	}
	td, ok := harness.Lookup(harness.KindTimed)
	if !ok || !td.Trace || !td.Deterministic || !td.Reusable || !td.Timed {
		t.Errorf("timed caps = %+v, want trace+deterministic+reusable+timed", td)
	}
	if _, ok := harness.Lookup("bogus"); ok {
		t.Error("Lookup accepted an unregistered kind")
	}
	if _, err := harness.New("bogus"); err == nil {
		t.Error("New accepted an unregistered kind")
	}
}

// dupEngine is a registerable stub that collides with a built-in kind.
type dupEngine struct{}

func (dupEngine) Kind() harness.Kind                 { return harness.KindDeterministic }
func (dupEngine) Capabilities() harness.Capabilities { return harness.Capabilities{} }
func (dupEngine) Run(harness.Job) (*sim.Result, error) {
	return nil, nil
}

// TestRegisterDuplicateKindPanics pins the registry's duplicate guard:
// re-registering an existing kind is an init-time programming error and must
// panic with a message naming the colliding kind, never silently replace a
// working engine.
func TestRegisterDuplicateKindPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate registration did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, string(harness.KindDeterministic)) ||
			!strings.Contains(msg, "registered twice") {
			t.Errorf("panic message %v does not name the duplicate kind", r)
		}
	}()
	harness.Register(func() harness.Engine { return dupEngine{} })
}

// TestKindsOrderingDeterministic pins that Kinds() is sorted and stable
// across calls: sweep cross-checks, CLI listings and test expectations all
// iterate it and rely on a reproducible order (the registry is a map
// underneath, so without the sort the order would wander).
func TestKindsOrderingDeterministic(t *testing.T) {
	first := harness.Kinds()
	if !sort.SliceIsSorted(first, func(i, j int) bool { return first[i] < first[j] }) {
		t.Errorf("Kinds() = %v is not sorted", first)
	}
	for i := 0; i < 32; i++ {
		again := harness.Kinds()
		if len(again) != len(first) {
			t.Fatalf("Kinds() length changed: %v vs %v", again, first)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("Kinds() order changed at call %d: %v vs %v", i, again, first)
			}
		}
	}
}

// TestForEachCoversAllIndicesDeterministically checks every index is
// visited exactly once for any worker count, that each worker owns a
// private cache and a private state that persists across its jobs and sees
// its indices in ascending order, and that ForEach hands those states back,
// one per worker.
func TestForEachCoversAllIndicesDeterministically(t *testing.T) {
	const n = 100
	type state struct{ jobs, last int }
	for _, workers := range []int{0, 1, 2, 4, 8, 200} {
		visits := make([]int, n)
		var mu sync.Mutex
		caches := map[*harness.Cache]bool{}
		owner := map[*state]*harness.Cache{} // worker state -> its worker's cache
		_, states := harness.ForEach(n, workers, func(c *harness.Cache, w *state, i int) {
			// Unsynchronized: the state belongs to this worker alone.
			if w.jobs > 0 && i <= w.last {
				t.Errorf("workers=%d: index %d after %d on one worker", workers, i, w.last)
			}
			w.jobs, w.last = w.jobs+1, i
			mu.Lock()
			visits[i]++
			caches[c] = true
			if prev, ok := owner[w]; ok && prev != c {
				t.Errorf("workers=%d: one worker state seen with two caches", workers)
			}
			owner[w] = c
			mu.Unlock()
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
		if len(caches) > n && workers != 1 {
			t.Errorf("workers=%d: %d caches for %d jobs", workers, len(caches), n)
		}
		total := 0
		for w := range owner {
			total += w.jobs
		}
		if total != n || len(owner) != len(caches) {
			t.Errorf("workers=%d: %d worker states counted %d jobs over %d caches, want one state per cache and %d jobs",
				workers, len(owner), total, len(caches), n)
		}
		want := workers
		if want <= 0 {
			want = runtime.GOMAXPROCS(0)
		}
		if len(states) != min(want, n) {
			t.Errorf("workers=%d: %d states handed back, want %d", workers, len(states), min(want, n))
		}
		returned := 0
		for k := range states {
			if _, ok := owner[&states[k]]; !ok && states[k].jobs > 0 {
				t.Errorf("workers=%d: state %d handed back is not a worker's", workers, k)
			}
			returned += states[k].jobs
		}
		if returned != n {
			t.Errorf("workers=%d: the states handed back counted %d jobs, want %d", workers, returned, n)
		}
	}
	// n = 0 must be a no-op, not a hang.
	if _, states := harness.ForEach(0, 4, func(*harness.Cache, *struct{}, int) { t.Error("fn called for empty batch") }); states != nil {
		t.Errorf("empty batch handed back %d states", len(states))
	}
}

// TestCacheReturnsSameEngine checks Get memoizes per kind.
func TestCacheReturnsSameEngine(t *testing.T) {
	c := harness.NewCache()
	a, err := c.Get(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache returned distinct engines for one kind")
	}
	if _, err := c.Get("bogus"); err == nil {
		t.Error("cache accepted an unregistered kind")
	}
}
