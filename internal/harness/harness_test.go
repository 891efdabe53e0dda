package harness_test

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/timed"
	"repro/internal/trace"
)

// job builds a fresh CRW job of n processes under a coordinator killer.
func job(n, f int) harness.Job {
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = sim.Value(100 + i)
	}
	return harness.Job{
		Model:   sim.ModelExtended,
		Horizon: sim.Round(n + 2),
		Procs:   core.NewSystem(props, core.Options{}),
		Adv:     adversary.CoordinatorKiller{F: f},
	}
}

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

// TestTimedAdapter runs a job through the timed adapter and checks the
// semantic outcome matches the deterministic engine while SimTime is
// reported; it also pins the capability guards (sim/lockstep reject latency
// models, timed accepts traces).
func TestTimedAdapter(t *testing.T) {
	det, err := harness.New(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	td, err := harness.New(harness.KindTimed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := det.Run(job(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	j := job(6, 2)
	j.Latency = timed.Fixed{D: 1, Delta: 0.25}
	got, err := td.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || !slices.Equal(got.Procs, want.Procs) ||
		got.Counters != want.Counters {
		t.Errorf("timed result %+v differs from deterministic %+v", got, want)
	}
	if wantTime := float64(got.Rounds) * 1.25; got.SimTime != wantTime {
		t.Errorf("SimTime = %g, want %g", got.SimTime, wantTime)
	}
	if want.SimTime != 0 {
		t.Errorf("deterministic engine reported SimTime %g, want 0", want.SimTime)
	}

	// Traced timed job records a transcript.
	j = job(3, 0)
	j.Trace = trace.New()
	if _, err := td.Run(j); err != nil {
		t.Fatal(err)
	}
	if j.Trace.String() == "" {
		t.Error("traced timed job produced no transcript")
	}

	// Engines without the timed capability reject latency models.
	for _, kind := range []harness.Kind{harness.KindDeterministic, harness.KindLockstep} {
		eng, err := harness.New(kind)
		if err != nil {
			t.Fatal(err)
		}
		j := job(3, 0)
		j.Latency = timed.Fixed{D: 1}
		if _, err := eng.Run(j); err == nil {
			t.Errorf("engine %q accepted a latency model without the timed capability", kind)
		}
	}
}

// TestAdaptersAgree runs the same workload through both adapters and
// compares the semantic outcome.
func TestAdaptersAgree(t *testing.T) {
	det, err := harness.New(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := harness.New(harness.KindLockstep)
	if err != nil {
		t.Fatal(err)
	}
	// The adapter's runtime keeps its worker goroutines until closed.
	t.Cleanup(ls.(interface{ Close() }).Close)
	want, err := det.Run(job(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ls.Run(job(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || !slices.Equal(got.Procs, want.Procs) ||
		got.Counters != want.Counters {
		t.Errorf("lockstep result %+v differs from deterministic %+v", got, want)
	}
}

// TestSimAdapterReuse drives one deterministic adapter through jobs of
// changing shapes and checks every run stays correct — the reuse path
// (same-shape jobs hit sim.Engine.Reset) must be invisible to results.
func TestSimAdapterReuse(t *testing.T) {
	eng, err := harness.New(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct{ n, f int }{{4, 1}, {4, 2}, {4, 2}, {6, 0}, {4, 1}, {6, 5}}
	for i, s := range shapes {
		res, err := eng.Run(job(s.n, s.f))
		if err != nil {
			t.Fatalf("run %d (n=%d f=%d): %v", i, s.n, s.f, err)
		}
		if res.MaxDecideRound() != sim.Round(s.f+1) {
			t.Errorf("run %d (n=%d f=%d): decide round %d, want %d",
				i, s.n, s.f, res.MaxDecideRound(), s.f+1)
		}
		deciders := 0
		for range res.Decisions() {
			deciders++
		}
		if deciders != s.n-s.f {
			t.Errorf("run %d: %d deciders, want %d", i, deciders, s.n-s.f)
		}
	}
}

// TestSimAdapterTrace checks traced jobs record a transcript and do not
// leak events into later untraced jobs.
func TestSimAdapterTrace(t *testing.T) {
	eng, err := harness.New(harness.KindDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	j := job(3, 0)
	j.Trace = log
	if _, err := eng.Run(j); err != nil {
		t.Fatal(err)
	}
	if log.String() == "" {
		t.Error("traced job produced no transcript")
	}
	before := len(log.String())
	if _, err := eng.Run(job(3, 0)); err != nil {
		t.Fatal(err)
	}
	if len(log.String()) != before {
		t.Error("untraced job appended to the previous job's trace log")
	}
}

// TestLockstepAdapterRejectsTrace pins the capability backstop in the
// adapter itself.
func TestLockstepAdapterRejectsTrace(t *testing.T) {
	eng, err := harness.New(harness.KindLockstep)
	if err != nil {
		t.Fatal(err)
	}
	j := job(3, 0)
	j.Trace = trace.New()
	if _, err := eng.Run(j); err == nil {
		t.Error("lockstep adapter accepted a traced job")
	}
}

// TestForEachCoversAllIndicesDeterministically checks every index is
// visited exactly once for any worker count, and that each worker owns a
// private cache and a private state that persists across its jobs.
func TestForEachCoversAllIndicesDeterministically(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 2, 4, 8, 200} {
		visits := make([]int, n)
		var mu sync.Mutex
		caches := map[*harness.Cache]bool{}
		owner := map[*int]*harness.Cache{} // worker state -> its worker's cache
		harness.ForEach(n, workers, func(c *harness.Cache, jobs *int, i int) {
			*jobs++ // unsynchronized: the state belongs to this worker alone
			mu.Lock()
			visits[i]++
			caches[c] = true
			if prev, ok := owner[jobs]; ok && prev != c {
				t.Errorf("workers=%d: one worker state seen with two caches", workers)
			}
			owner[jobs] = c
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
		for jobs := range owner {
			total += *jobs
		}
		if total != n || len(owner) != len(caches) {
			t.Errorf("workers=%d: %d worker states counted %d jobs over %d caches, want one state per cache and %d jobs",
				workers, len(owner), total, len(caches), n)
		}
	}
	// n = 0 must be a no-op, not a hang.
	harness.ForEach(0, 4, func(*harness.Cache, *struct{}, int) { t.Error("fn called for empty batch") })
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
