package harness_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
)

// freshRun runs j on a newly built engine of the given kind and returns a
// clone of its result, the reference a reused engine must match.
func freshRun(t *testing.T, kind harness.Kind, j harness.Job) (*sim.Result, error) {
	t.Helper()
	cache := harness.NewCache()
	defer cache.Close()
	eng, err := cache.Get(kind)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(j)
	if res == nil {
		t.Fatalf("fresh %s engine: %v", kind, err)
	}
	return res.Clone(), err
}

// TestResultLifetime pins the engine-owned result on every registered
// engine: a run's result is rewritten in place by the engine's next run, so
// it never carries state over from an earlier, larger or aborted run, and a
// Clone taken before a later run keeps reading the run it was taken from.
func TestResultLifetime(t *testing.T) {
	for _, kind := range harness.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cache := harness.NewCache()
			defer cache.Close()
			eng, err := cache.Get(kind)
			if err != nil {
				t.Fatal(err)
			}
			run := func(j harness.Job) (*sim.Result, error) {
				t.Helper()
				res, err := eng.Run(j)
				if res == nil {
					t.Fatalf("%s engine: %v", kind, err)
				}
				return res, err
			}

			// A large run with crashes, kept as a clone, then a small one.
			big, err := run(job(32, 4))
			if err != nil || big.Faults() != 4 || len(big.Procs) != 32 {
				t.Fatalf("n=32 run: %d faults, %d procs (%v); want 4, 32", big.Faults(), len(big.Procs), err)
			}
			kept := big.Clone()
			small, err := run(job(8, 1))
			if err != nil {
				t.Fatal(err)
			}
			if len(small.Procs) != 8 {
				t.Errorf("n=8 run after n=32 has %d outcomes, want 8", len(small.Procs))
			}
			if want, _ := freshRun(t, kind, job(8, 1)); !reflect.DeepEqual(small, want) {
				t.Errorf("n=8 run after n=32 differs from a fresh engine's:\n got %+v\nwant %+v", small, want)
			}

			// Aborted runs, each followed by a clean run that must match a
			// fresh engine's: a horizon hit with nobody decided, and a
			// protocol sending control messages in the classic model.
			noProgress := job(8, 1)
			noProgress.Horizon = 1
			classic := job(8, 0)
			classic.Model = sim.ModelClassic
			for _, abort := range []struct {
				name string
				job  harness.Job
				want error
			}{
				{"no progress", noProgress, sim.ErrNoProgress},
				{"control in classic", classic, sim.ErrControlInClassic},
			} {
				if _, err := run(abort.job); !errors.Is(err, abort.want) {
					t.Fatalf("%s: run error %v, want %v", abort.name, err, abort.want)
				}
				clean, err := run(job(8, 2))
				if err != nil {
					t.Fatalf("clean run after %s: %v", abort.name, err)
				}
				if want, _ := freshRun(t, kind, job(8, 2)); !reflect.DeepEqual(clean, want) {
					t.Errorf("clean run after %s differs from a fresh engine's:\n got %+v\nwant %+v",
						abort.name, clean, want)
				}
			}

			// The clone of the first run outlived four later runs.
			if want, _ := freshRun(t, kind, job(32, 4)); !reflect.DeepEqual(kept, want) {
				t.Errorf("clone of the n=32 run changed after later runs:\n got %+v\nwant %+v", kept, want)
			}
		})
	}
}
