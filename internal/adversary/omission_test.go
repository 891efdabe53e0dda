package adversary

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

var omitPlan = sim.SendPlan{
	Data: []sim.Outgoing{
		{To: 2, Payload: &sim.Est{V: 1, B: 8}},
		{To: 3, Payload: &sim.Est{V: 1, B: 8}},
	},
	Control: []sim.ProcID{3, 2},
}

func TestRandomOmissionDeterministicAndBounded(t *testing.T) {
	sample := func() []sim.Omission {
		a := NewRandomOmission(42, 0.5, 0.5, 2, 4)
		var out []sim.Omission
		for r := sim.Round(1); r <= 4; r++ {
			for p := sim.ProcID(1); p <= 4; p++ {
				out = append(out, a.Omits(p, r, omitPlan))
			}
		}
		if len(a.faulty) > 2 {
			t.Fatalf("faulty = %d, want <= 2 (MaxFaulty)", len(a.faulty))
		}
		return out
	}
	first, second := sample(), sample()
	if !reflect.DeepEqual(first, second) {
		t.Error("same seed produced different omission sequences")
	}
	any := false
	for _, om := range first {
		if !om.IsZero() {
			any = true
		}
	}
	if !any {
		t.Error("probability 0.5 never omitted anything")
	}

	never := NewRandomOmission(42, 0, 0, 4, 4)
	for p := sim.ProcID(1); p <= 4; p++ {
		if !never.Omits(p, 1, omitPlan).IsZero() {
			t.Error("probability 0 omitted")
		}
	}
}

// TestStagedStaysCrashOnly pins the cost contract: Staged composes
// crash-only stages (the valency analysis) and must not be an Omitter —
// otherwise every staged exhaustive search would pay the engines' omission
// machinery for nothing.
func TestStagedStaysCrashOnly(t *testing.T) {
	var st sim.Adversary = Staged{Until: 1, First: None{}, Rest: None{}}
	if _, ok := st.(sim.Omitter); ok {
		t.Error("Staged implements sim.Omitter; crash-only valency searches would pay for omissions")
	}
}

// TestFromChooserOmissionSplit pins the compatibility guarantee: the plain
// crash-only FromChooser is NOT an Omitter — the engines skip the omission
// machinery for it entirely, so pre-omission exploration spaces and
// allocation profiles are unchanged — while the omitting variant consults
// the chooser for its omission decisions.
func TestFromChooserOmissionSplit(t *testing.T) {
	counting := &countingChooser{}
	var plain sim.Adversary = NewFromChooser(counting, 1, 3)
	if _, ok := plain.(sim.Omitter); ok {
		t.Error("crash-only FromChooser implements sim.Omitter; crash-model exploration would pay for omissions")
	}

	with := NewFromChooserWithOmissions(counting, 1, 3, 1, 3)
	if _, ok := any(with).(sim.Omitter); !ok {
		t.Fatal("OmittingFromChooser does not implement sim.Omitter")
	}
	with.Omits(1, 1, omitPlan)
	if counting.calls == 0 {
		t.Error("budgeted Omits consumed no choices")
	}
	if !with.Omits(1, 4, omitPlan).IsZero() {
		t.Error("omission injected beyond MaxCrashRound")
	}
}

type countingChooser struct{ calls int }

func (c *countingChooser) Choose(Decision, int) int { c.calls++; return 0 }
