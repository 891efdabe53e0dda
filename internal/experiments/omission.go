package experiments

import (
	"errors"

	"repro/agree"
	"repro/internal/check"
	"repro/internal/fuzz"
)

// e15Omission maps the boundary of the paper's fault model with the
// first-class omission machinery: the crash model (which the paper proves
// correct) is exhaustively violation-free, while a single send- or
// receive-omission event — one notch beyond the model's reliable-channel
// assumption — already breaks uniform agreement, found both exhaustively at
// proof sizes (the E10-style ablation search) and by the randomized fuzzer
// at production sizes, where every finding shrinks to a minimal replayable
// omission script.
func e15Omission() *Table {
	t := &Table{
		Claim:   "the algorithm tolerates crash faults only; one omission event beyond the model breaks uniform agreement (Section 2.1)",
		Columns: []string{"search", "n", "fault model", "executions/seeds", "agreement violations", "min events"},
	}
	ok := true

	// Control: the crash model at the same size is exhaustively clean.
	rep, err := agree.Explore(agree.ExploreConfig{N: 3, T: 1})
	if err != nil {
		ok = false
		t.AddRow("exhaustive (control)", 3, "crash (t=1)", "error: "+err.Error(), "-", "-")
	} else {
		ok = ok && len(rep.Counterexamples) == 0
		t.AddRow("exhaustive (control)", 3, "crash (t=1)", rep.Executions, len(rep.Counterexamples), "-")
	}

	// Exhaustive omission search: at most one omission event, zero crashes
	// (OmissionOnly zeroes the crash budget; MaxFaults re-checks that no
	// enumerated execution crashed anybody), every schedule enumerated — the
	// violation is unavoidable, not a sampling artifact. Min events counts
	// the faults of the smallest counterexample's fault script.
	rep, err = agree.Explore(agree.ExploreConfig{
		N: 3, OmissionBudget: 1, OmissionOnly: true, MaxCounterexamples: 1_000_000,
	})
	if err != nil {
		ok = false
		t.AddRow("exhaustive", 3, "omission only (budget 1)", "error: "+err.Error(), "-", "-")
	} else {
		agreementViolations, minEvents := 0, -1
		for _, ce := range rep.Counterexamples {
			if errors.Is(ce.Err, check.ErrAgreement) {
				agreementViolations++
			}
			s, err := fuzz.Parse(ce.Script)
			if ev := s.Crashes() + s.Omissions(); err == nil && (minEvents < 0 || ev < minEvents) {
				minEvents = ev
			}
		}
		ok = ok && agreementViolations > 0 && rep.MaxFaults == 0 && minEvents == 1
		t.AddRow("exhaustive", 3, "omission only (budget 1)", rep.Executions, agreementViolations, minEvents)
	}

	// Randomized omission campaign at production size: findings expected,
	// each replay-verified and shrunk; the minimal shrunk schedule is a
	// single omission event.
	frep, err := agree.Fuzz(agree.FuzzConfig{
		N: 8, Seeds: 150, SendOmitProb: 0.08, RecvOmitProb: 0.04,
		OmissionOnly: true, Shrink: true,
	})
	if err != nil {
		ok = false
		t.AddRow("fuzzer", 8, "omission (random walk)", "error: "+err.Error(), "-", "-")
	} else {
		minEvents := -1
		for _, f := range frep.Findings {
			if ev := f.ShrunkCrashes + f.ShrunkOmissions; minEvents < 0 || ev < minEvents {
				minEvents = ev
			}
		}
		ok = ok && len(frep.Findings) > 0 && minEvents == 1
		t.AddRow("fuzzer", 8, "omission (random walk)", frep.Seeds, len(frep.Findings), minEvents)
	}

	t.Verdict = verdict(ok, "crash schedules are exhaustively safe; a single omission event breaks agreement, exactly at the model's boundary")
	return t
}
