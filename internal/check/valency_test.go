package check_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sim"
)

// valencyFactory builds CRW executions over explicit proposals, optionally
// forcing the first `cleanRounds` rounds crash-free before the chooser takes
// over (the Staged adversary's job).
func valencyFactory(proposals []sim.Value, t int, cleanRounds sim.Round) check.RunFactory {
	n := len(proposals)
	return func(ch adversary.Chooser) check.Execution {
		props := append([]sim.Value(nil), proposals...)
		var adv sim.Adversary = adversary.NewFromChooser(ch, t, sim.Round(n))
		if cleanRounds > 0 {
			adv = adversary.Staged{Until: cleanRounds, First: adversary.None{}, Rest: adv}
		}
		return check.Execution{
			Procs:     core.NewSystem(props, core.Options{}),
			Adv:       adv,
			Cfg:       sim.Config{Model: sim.ModelExtended, Horizon: sim.Round(n + 2)},
			Proposals: props,
		}
	}
}

func TestMixedProposalsAreBivalent(t *testing.T) {
	// The seed of the paper's lower bound (Theorem 3, via [2]): with mixed
	// proposals the initial configuration is bivalent — the adversary can
	// steer the run to either value.
	v, err := check.ValencySet(valencyFactory([]sim.Value{0, 1, 1}, 2, 0),
		check.ExploreOpts{Budget: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bivalent() {
		t.Fatalf("mixed proposals not bivalent: %v (over %d executions)", v, v.Executions)
	}
	if len(v.Values) != 2 || v.Values[0] != 0 || v.Values[1] != 1 {
		t.Errorf("valency = %v, want {0, 1}", v.Values)
	}
}

func TestUniformProposalsAreUnivalent(t *testing.T) {
	// Validity makes all-same-proposal configurations trivially univalent.
	v, err := check.ValencySet(valencyFactory([]sim.Value{7, 7, 7}, 2, 0),
		check.ExploreOpts{Budget: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if v.Bivalent() || len(v.Values) != 1 || v.Values[0] != 7 {
		t.Errorf("valency = %v, want univalent {7}", v)
	}
}

func TestCleanRoundForcesUnivalence(t *testing.T) {
	// The heart of the agreement proof (Lemma 2): once the round-1
	// coordinator completes line 4 without crashing, its estimate is locked
	// — every continuation, however adversarial, decides p1's value. In
	// valency terms: one clean round collapses the bivalent initial
	// configuration to a univalent one.
	v, err := check.ValencySet(valencyFactory([]sim.Value{0, 1, 1}, 2, 1),
		check.ExploreOpts{Budget: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if v.Bivalent() {
		t.Fatalf("configuration after a clean round still bivalent: %v", v)
	}
	if len(v.Values) != 1 || v.Values[0] != 0 {
		t.Errorf("locked value = %v, want p1's proposal 0", v.Values)
	}
	// With a clean first round everyone has decided: exactly one execution.
	if v.Executions != 1 {
		t.Errorf("executions = %d, want 1 (run ends in round 1)", v.Executions)
	}
}

func TestBivalenceMaintainedByCrashingCoordinators(t *testing.T) {
	// The adversary that realizes the lower bound keeps the configuration
	// bivalent by killing each coordinator silently: after rounds 1..k of
	// silent coordinator deaths (k <= t-1... up to t), the remaining
	// configuration is still bivalent as long as processes with distinct
	// estimates remain. Pin rounds 1..k to the killer, explore the rest.
	proposals := []sim.Value{0, 1, 2, 3}
	const tt = 3
	for k := 1; k <= 2; k++ {
		k := k
		factory := func(ch adversary.Chooser) check.Execution {
			props := append([]sim.Value(nil), proposals...)
			rest := adversary.NewFromChooser(ch, tt-k, 4)
			adv := adversary.Staged{
				Until: sim.Round(k),
				First: adversary.CoordinatorKiller{F: k},
				Rest:  rest,
			}
			return check.Execution{
				Procs:     core.NewSystem(props, core.Options{}),
				Adv:       adv,
				Cfg:       sim.Config{Model: sim.ModelExtended, Horizon: 6},
				Proposals: props,
			}
		}
		v, err := check.ValencySet(factory, check.ExploreOpts{Budget: 10_000_000})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !v.Bivalent() {
			t.Errorf("k=%d: configuration univalent too early: %v", k, v)
		}
		// The values still reachable are exactly the surviving estimates.
		for _, val := range v.Values {
			if int(val) < k {
				t.Errorf("k=%d: dead coordinator's value %d still reachable", k, int64(val))
			}
		}
	}
}

func TestStagedAdversaryBoundary(t *testing.T) {
	// Staged switches exactly after Until: a killer confined to round 1 must
	// not crash the round-2 coordinator.
	adv := adversary.Staged{
		Until: 1,
		First: adversary.CoordinatorKiller{F: 3},
		Rest:  adversary.None{},
	}
	plan := sim.SendPlan{}
	if crash, _ := adv.Crashes(1, 1, plan); !crash {
		t.Error("round-1 crash suppressed")
	}
	if crash, _ := adv.Crashes(2, 2, plan); crash {
		t.Error("round-2 crash leaked through the stage boundary")
	}
}
