package diagram_test

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/diagram"
	"repro/internal/sim"
	"repro/internal/trace"
)

// traced runs a CRW instance with the given adversary and returns its log.
func traced(t *testing.T, n int, adv sim.Adversary) *trace.Log {
	t.Helper()
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = sim.Value(100 + i)
	}
	log := trace.New()
	eng, err := sim.NewEngine(sim.Config{Model: sim.ModelExtended, Trace: log},
		core.NewSystem(props, core.Options{}), adv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

func TestRenderFailureFree(t *testing.T) {
	log := traced(t, 4, adversary.None{})
	out := diagram.Render(log, 4)
	for _, want := range []string{"p1", "p4", "DECIDE p1", "DECIDE p4", "HALT p1", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagram lacks %q:\n%s", want, out)
		}
	}
	// Control messages render with the => head.
	if !strings.Contains(out, "=>") {
		t.Errorf("diagram lacks control arrows:\n%s", out)
	}
}

func TestRenderCrash(t *testing.T) {
	log := traced(t, 4, adversary.CoordinatorKiller{F: 1})
	out := diagram.Render(log, 4)
	if !strings.Contains(out, "CRASH p1") {
		t.Errorf("diagram lacks crash marker:\n%s", out)
	}
	if !strings.Contains(out, "(dropped)") {
		t.Errorf("diagram lacks dropped messages:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	if out := diagram.Render(nil, 3); !strings.Contains(out, "empty") {
		t.Errorf("nil log rendering = %q", out)
	}
	if out := diagram.Render(trace.New(), 3); !strings.Contains(out, "empty") {
		t.Errorf("empty log rendering = %q", out)
	}
}
