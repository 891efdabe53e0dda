package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/fuzz"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// e13Valency reproduces the proof machinery of Section 5 (Theorem 3, after
// Aguilera–Toueg's bivalency argument): mixed-proposal initial
// configurations are bivalent; a clean round collapses them to univalent
// (the value-locking of Lemma 2); and the adversary maintains bivalence by
// silently killing coordinators — which is precisely why f+1 rounds are
// unavoidable.
func e13Valency() *Table {
	t := &Table{
		Claim:   "mixed inputs bivalent; a clean round locks the value; killing coordinators preserves bivalence (Theorem 3)",
		Columns: []string{"configuration", "constrained prefix", "executions", "valency"},
	}
	ok := true

	type prefix struct {
		name  string
		until sim.Round
		adv   sim.Adversary
	}
	cases := []struct {
		name      string
		proposals []sim.Value
		t         int
		prefix    prefix
		wantBi    bool
		wantVals  []sim.Value
	}{
		{"mixed {0,1,1}", []sim.Value{0, 1, 1}, 2,
			prefix{"none", 0, nil}, true, []sim.Value{0, 1}},
		{"uniform {7,7,7}", []sim.Value{7, 7, 7}, 2,
			prefix{"none", 0, nil}, false, []sim.Value{7}},
		{"mixed {0,1,1}", []sim.Value{0, 1, 1}, 2,
			prefix{"round 1 clean", 1, adversary.None{}}, false, []sim.Value{0}},
		{"mixed {0,1,2,3}", []sim.Value{0, 1, 2, 3}, 3,
			prefix{"kill p1 silently", 1, adversary.CoordinatorKiller{F: 1}}, true, []sim.Value{1, 2, 3}},
		{"mixed {0,1,2,3}", []sim.Value{0, 1, 2, 3}, 3,
			prefix{"kill p1, p2 silently", 2, adversary.CoordinatorKiller{F: 2}}, true, []sim.Value{2, 3}},
	}
	for _, c := range cases {
		c := c
		n := len(c.proposals)
		newFactory := func() check.RunFactory {
			var sys protocol.Systems
			budget := c.t - int(c.prefix.until)
			if c.prefix.adv == nil || c.prefix.until == 0 {
				budget = c.t
			}
			tree := adversary.NewFromChooser(nil, budget, sim.Round(n))
			var adv sim.Adversary = tree
			if c.prefix.adv != nil && c.prefix.until > 0 {
				adv = adversary.Staged{Until: c.prefix.until, First: c.prefix.adv, Rest: tree}
			}
			return func(ch adversary.Chooser) check.Execution {
				tree.C = ch
				tree.Reset()
				procs, model, horizon := protocol.Spec{N: n}.Build(&sys, c.proposals)
				return check.Execution{Procs: procs, Adv: adv, Cfg: sim.Config{Model: model, Horizon: horizon}, Proposals: c.proposals}
			}
		}
		v, err := check.ValencySet(newFactory, check.ExploreOpts{Budget: 20_000_000})
		if err != nil {
			ok = false
			t.AddRow(c.name, c.prefix.name, "error: "+err.Error(), "-")
			continue
		}
		match := v.Bivalent() == c.wantBi && equalValues(v.Values, c.wantVals)
		ok = ok && match
		t.AddRow(c.name, c.prefix.name, v.Executions, v.String())
	}
	t.Verdict = verdict(ok, "valency behaves exactly as the lower-bound proof requires")
	return t
}

func equalValues(a, b []sim.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// e14LossyChannels reproduces the model's scoping statement (Sections 1 and
// 2.2): the extended model is meant for LANs with reliable communication and
// "is not for networks where unreliable communication requires message
// retransmission". Concretely: with lossy channels the algorithm's
// guarantees collapse even with ZERO crashes — losing a single DATA message
// while the pipelined COMMIT survives makes a process decide its stale
// estimate.
//
// Loss is expressed through the first-class omission fault model: a lossy
// channel is a send omission at the sender (every process allowed to be
// omission faulty = every message independently losable), so the ablation
// needs no special engine hook and runs identically on both engines.
func e14LossyChannels() *Table {
	t := &Table{
		Claim:   "the model requires reliable channels; under loss, agreement fails with zero crashes (Sections 1, 2.2)",
		Columns: []string{"scenario", "faults", "distinct decisions", "agreement"},
	}
	ok := true
	props := []sim.Value{10, 11, 12, 13}
	n := len(props)

	runWith := func(adv sim.Adversary) (*sim.Result, error) {
		var sys protocol.Systems
		procs, model, horizon := protocol.Spec{N: n}.Build(&sys, props)
		eng, err := sim.NewEngine(sim.Config{Model: model, Horizon: horizon}, procs, adv)
		if err != nil {
			return nil, err
		}
		return eng.Run()
	}

	// Reliable control run.
	res, err := runWith(adversary.None{})
	if err != nil {
		ok = false
	} else {
		agree := len(res.DistinctDecisions()) == 1
		ok = ok && agree
		t.AddRow("reliable channels (control)", res.Faults(), len(res.DistinctDecisions()), agree)
	}

	// Targeted single loss: DATA p1->p2 in round 1 vanishes, the COMMIT
	// survives; p2 decides its own proposal while everyone else decides
	// p1's. (The round-1 coordinator broadcasts data to p2..pn in order, so
	// the first data position is the p2 message.)
	loss, err := fuzz.Parse("p1@r1:so:0/")
	if err == nil {
		res, err = runWith(loss.Adversary())
	}
	if err != nil {
		ok = false
	} else {
		broken := len(res.DistinctDecisions()) > 1 && res.Faults() == 0
		ok = ok && broken
		t.AddRow("lose one DATA (commit survives)", res.Faults(), len(res.DistinctDecisions()), !broken)
	}

	// Random loss sweep: count agreement violations across seeds. Every
	// process may be omission faulty and each sent message is independently
	// lost — the classic lossy-network scenario.
	const seeds, rate = 200, 0.15
	violations := 0
	for seed := int64(0); seed < seeds; seed++ {
		res, err := runWith(adversary.NewRandomOmission(seed, rate, 0, n, n))
		if err != nil {
			continue // loss can also starve termination; agreement is the focus here
		}
		if len(res.DistinctDecisions()) > 1 {
			violations++
		}
	}
	ok = ok && violations > 0
	t.AddRow(fmt.Sprintf("random %.0f%% loss, %d seeds", rate*100, seeds),
		0, fmt.Sprintf("%d violating runs", violations), violations == 0)

	t.Verdict = verdict(ok, "a single lost message breaks uniform agreement — reliable channels are a real precondition")
	return t
}
