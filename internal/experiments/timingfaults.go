package experiments

import (
	"fmt"

	"repro/agree"
)

// e16TimingFaults maps the boundary of the paper's synchrony assumption
// with the continuous-time engine: random per-message jitter whose whole
// range fits under the synchrony bound D is semantically invisible — zero
// late messages, the cross-check against the round engines passes, and the
// worst-case f+1 decision bound holds on the event clock — while jitter
// whose tail exceeds D turns into timing faults: late messages mapped to
// receive omissions, under which the algorithms may (and at these spreads
// do) lose rounds or uniform agreement itself. Partial synchrony degrades
// into exactly the omission fault model E15 charts, one late message at a
// time.
func e16TimingFaults() *Table {
	t := &Table{
		Claim:   "jitter within D is invisible (cross-checked vs round engines); jitter beyond D becomes receive omissions (Sections 1-2: synchrony is assumed, not enforced)",
		Columns: []string{"protocol", "jitter range", "bound", "late msgs", "rounds", "consensus", "crosscheck", "as predicted"},
	}
	const (
		n     = 8
		d     = 1.0
		delta = 0.1
		floor = 0.2
		seed  = 20060718 // deterministic per-message hash seed
	)
	type scenario struct {
		protocol agree.Protocol
		spread   float64
		f        int
	}
	scenarios := []scenario{
		// Within bound (floor+spread <= d): jitter is pure pricing noise.
		{agree.ProtocolCRW, 0.5, 0},
		{agree.ProtocolCRW, 0.8, 2},
		{agree.ProtocolEarlyStop, 0.8, 1},
		{agree.ProtocolFloodSet, 0.8, 0},
		// Beyond bound: the tail of the distribution misses the round.
		{agree.ProtocolCRW, 1.6, 0},
		{agree.ProtocolCRW, 2.4, 0},
		{agree.ProtocolEarlyStop, 2.4, 0},
		{agree.ProtocolFloodSet, 2.4, 0},
	}
	configs := make([]agree.Config, 0, len(scenarios))
	for _, sc := range scenarios {
		configs = append(configs, agree.Config{
			N:        n,
			T:        n - 2,
			Protocol: sc.protocol,
			Engine:   agree.EngineTimed,
			Faults:   agree.CoordinatorCrashes(sc.f),
			Latency:  agree.JitterLatency(seed, d, delta, floor, sc.spread),
		})
	}
	// CrossCheck on top of the caller's options: within-bound scenarios must
	// re-execute identically on the round engines; out-of-bound scenarios
	// are skipped by design (timing faults are a continuous-time semantics).
	opts := sweepOpts
	opts.CrossCheck = true
	sr := batchSweep(configs, opts)

	ok := true
	for i, sc := range scenarios {
		item := sr.Items[i]
		within := floor+sc.spread <= d
		if item.Err != nil {
			ok = false
			t.AddRow(string(sc.protocol), jitterRange(floor, sc.spread), d,
				"error: "+item.Err.Error(), "-", "-", "-", false)
			continue
		}
		rep := item.Report
		consensus := "ok"
		if rep.ConsensusErr != nil {
			consensus = "VIOLATION"
		}
		crosscheck := "skipped"
		if len(item.CrossChecked) > 0 {
			crosscheck = fmt.Sprintf("ok on %d engines", len(item.CrossChecked))
		}
		// The protocol's crash-model decision bound: f+1 for CRW,
		// min(f+2, t+1) for early stopping, t+1 for FloodSet.
		bound := sc.f + 1
		switch sc.protocol {
		case agree.ProtocolEarlyStop:
			bound = sc.f + 2
			if n-1 < bound {
				bound = n - 1
			}
		case agree.ProtocolFloodSet:
			bound = n - 1
		}
		var predicted bool
		if within {
			// Invisible: no late messages, consensus holds, the protocol's
			// decision bound holds on the event clock, and the run
			// re-executed identically on every other registered engine.
			predicted = rep.Counters.Late == 0 && rep.ConsensusErr == nil &&
				rep.MaxDecideRound() <= bound && len(item.CrossChecked) == 2
		} else {
			// Degraded: timing faults materialized as late messages; the
			// round engines cannot reproduce them, so no cross-check.
			predicted = rep.Counters.Late > 0 && len(item.CrossChecked) == 0
		}
		ok = ok && predicted
		t.AddRow(string(sc.protocol), jitterRange(floor, sc.spread), d,
			rep.Counters.Late, rep.Rounds, consensus, crosscheck, predicted)
	}
	t.Verdict = verdict(ok, "within-bound jitter invisible and cross-checked; out-of-bound jitter yields late messages (receive omissions)")
	return t
}

// jitterRange renders a jitter latency range for the table.
func jitterRange(floor, spread float64) string {
	return fmt.Sprintf("[%.1f, %.1f)", floor, floor+spread)
}
