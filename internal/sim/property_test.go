package sim_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// mkPlan builds a plan from fuzz inputs: data destinations and control
// destinations drawn from raw bytes over a system of size n.
func mkPlan(n int, dataRaw, ctrlRaw []uint8) sim.SendPlan {
	var plan sim.SendPlan
	for _, d := range dataRaw {
		plan.Data = append(plan.Data, sim.Outgoing{
			To: sim.ProcID(int(d)%n + 1), Payload: sim.Est{V: 1, B: 8}})
	}
	seen := map[sim.ProcID]bool{}
	for _, c := range ctrlRaw {
		to := sim.ProcID(int(c)%n + 1)
		if !seen[to] {
			seen[to] = true
			plan.Control = append(plan.Control, to)
		}
	}
	return plan
}

func TestPropertyFullAndNoDeliveryAlwaysValid(t *testing.T) {
	// FullDelivery and NoDelivery produce valid outcomes for every plan.
	prop := func(nRaw uint8, dataRaw, ctrlRaw []uint8) bool {
		n := int(nRaw%8) + 2
		plan := mkPlan(n, dataRaw, ctrlRaw)
		return sim.FullDelivery(plan).ValidFor(plan) && sim.NoDelivery(plan).ValidFor(plan)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPartialDataWithControlInvalid(t *testing.T) {
	// Any outcome with a nonzero control prefix and at least one undelivered
	// data message violates the single-crash-point rule and must be invalid.
	prop := func(nRaw uint8, dataRaw, ctrlRaw []uint8, drop uint8) bool {
		n := int(nRaw%8) + 2
		plan := mkPlan(n, dataRaw, ctrlRaw)
		if len(plan.Data) == 0 || len(plan.Control) == 0 {
			return true
		}
		out := sim.FullDelivery(plan)
		out.DataDelivered[int(drop)%len(plan.Data)] = false
		out.CtrlPrefix = 1
		return !out.ValidFor(plan)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyOutOfRangePrefixInvalid(t *testing.T) {
	prop := func(nRaw uint8, ctrlRaw []uint8) bool {
		n := int(nRaw%8) + 2
		plan := mkPlan(n, nil, ctrlRaw)
		out := sim.FullDelivery(plan)
		out.CtrlPrefix = len(plan.Control) + 1
		if out.ValidFor(plan) {
			return false
		}
		out.CtrlPrefix = -1
		return !out.ValidFor(plan)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyValidatePlanCatchesBadDestinations(t *testing.T) {
	// Self-sends and out-of-range destinations are always rejected; plans
	// built from in-range non-self destinations always pass. One validator
	// serves every iteration, so its scratch is reused across system sizes.
	var v sim.PlanValidator
	prop := func(nRaw, from uint8, dataRaw, ctrlRaw []uint8) bool {
		n := int(nRaw%8) + 2
		sender := sim.ProcID(int(from)%n + 1)
		plan := mkPlan(n, dataRaw, ctrlRaw)
		// Filter out self-sends so the plan is legal.
		var data []sim.Outgoing
		for _, o := range plan.Data {
			if o.To != sender {
				data = append(data, o)
			}
		}
		var ctrl []sim.ProcID
		for _, c := range plan.Control {
			if c != sender {
				ctrl = append(ctrl, c)
			}
		}
		plan = sim.SendPlan{Data: data, Control: ctrl}
		if v.Validate(sender, n, plan) != nil {
			return false
		}
		// Self-send rejected.
		bad := plan
		bad.Data = append(append([]sim.Outgoing(nil), plan.Data...),
			sim.Outgoing{To: sender, Payload: sim.Est{V: 1, B: 8}})
		if v.Validate(sender, n, bad) == nil {
			return false
		}
		// Out-of-range rejected.
		bad2 := plan
		bad2.Control = append(append([]sim.ProcID(nil), plan.Control...), sim.ProcID(n+1))
		return v.Validate(sender, n, bad2) != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDuplicateControlRejected(t *testing.T) {
	var v sim.PlanValidator
	prop := func(nRaw, to uint8) bool {
		n := int(nRaw%8) + 3
		dest := sim.ProcID(int(to)%(n-1) + 2) // never the sender p1
		plan := sim.SendPlan{Control: []sim.ProcID{dest, dest}}
		return v.Validate(1, n, plan) != nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// refValidatePlan is the map-based validator PlanValidator replaced, kept as
// the reference the scratch-owned version is compared against.
func refValidatePlan(from sim.ProcID, n int, plan sim.SendPlan) error {
	for _, o := range plan.Data {
		if o.To < 1 || int(o.To) > n {
			return fmt.Errorf("sim: p%d sends data to nonexistent p%d", from, o.To)
		}
		if o.To == from {
			return fmt.Errorf("sim: p%d sends data to itself", from)
		}
	}
	seenCtrl := make(map[sim.ProcID]bool, len(plan.Control))
	for _, to := range plan.Control {
		if to < 1 || int(to) > n {
			return fmt.Errorf("sim: p%d sends control to nonexistent p%d", from, to)
		}
		if to == from {
			return fmt.Errorf("sim: p%d sends control to itself", from)
		}
		if seenCtrl[to] {
			return fmt.Errorf("sim: p%d sends two control messages to p%d in one round", from, to)
		}
		seenCtrl[to] = true
	}
	return nil
}

func TestPropertyPlanValidatorMatchesReference(t *testing.T) {
	// Arbitrary plans — self-sends, out-of-range and duplicate destinations
	// included — get the same verdict and the same first error from one
	// reused validator as from the map-based reference, whatever was
	// validated before.
	var v sim.PlanValidator
	prop := func(nRaw, from uint8, dataRaw, ctrlRaw []int8) bool {
		n := int(nRaw%8) + 1
		sender := sim.ProcID(int(from)%n + 1)
		var plan sim.SendPlan
		for _, d := range dataRaw {
			plan.Data = append(plan.Data, sim.Outgoing{To: sim.ProcID(int(d) % (n + 2))})
		}
		for _, c := range ctrlRaw {
			plan.Control = append(plan.Control, sim.ProcID(int(c)%(n+2)))
		}
		got, want := v.Validate(sender, n, plan), refValidatePlan(sender, n, plan)
		if (got == nil) != (want == nil) {
			return false
		}
		return got == nil || got.Error() == want.Error()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPlanValidatorAllocFree(t *testing.T) {
	const n = 64
	plan := sim.SendPlan{}
	for j := 2; j <= n; j++ {
		plan.Data = append(plan.Data, sim.Outgoing{To: sim.ProcID(j)})
		plan.Control = append(plan.Control, sim.ProcID(n+2-j))
	}
	var v sim.PlanValidator
	if err := v.Validate(1, n, plan); err != nil { // grows the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := v.Validate(1, n, plan); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Validate allocates %.1f per plan, want 0", allocs)
	}
}
