package harness

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus/earlystop"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestSimAdapterReusesAcrossShapes runs a sweep whose shape changes job to
// job — n alternating 8, 64, 8, 32, CRW on the extended model with the
// default horizon against earlystop on the classic model with t+2 — and
// requires the adapter to build one sim.Engine for all of it, with every
// result equal to a fresh engine's.
func TestSimAdapterReusesAcrossShapes(t *testing.T) {
	type shape struct {
		n     int
		early bool
	}
	var shapes []shape
	for rep := 0; rep < 2; rep++ {
		for _, n := range []int{8, 64, 8, 32} {
			shapes = append(shapes, shape{n, false}, shape{n, true})
		}
	}
	job := func(s shape) Job {
		props := make([]sim.Value, s.n)
		for i := range props {
			props[i] = sim.Value(100 + (i*7)%s.n)
		}
		f := s.n / 8
		if s.early {
			return Job{Model: sim.ModelClassic, Horizon: sim.Round(f + 3),
				Procs: earlystop.NewSystem(props, f+1, 0), Adv: adversary.CoordinatorKiller{F: f}}
		}
		return Job{Model: sim.ModelExtended, Procs: core.NewSystem(props, core.Options{}),
			Adv: adversary.CoordinatorKiller{F: f, DeliverAllData: true}}
	}
	e := &simEngine{}
	var first *sim.Engine
	for i, s := range shapes {
		got, err := e.Run(job(s))
		if err != nil {
			t.Fatalf("job %d (%+v): %v", i, s, err)
		}
		if first == nil {
			first = e.eng
		} else if e.eng != first {
			t.Fatalf("job %d (%+v) built a new sim.Engine", i, s)
		}
		j := job(s)
		fresh, err := sim.NewEngine(sim.Config{Model: j.Model, Horizon: j.Horizon}, j.Procs, j.Adv)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d (%+v): reused engine gives %+v, fresh engine %+v", i, s, got, want)
		}
	}
}
