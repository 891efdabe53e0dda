package laws_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/laws"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// balanced returns a result whose books balance: 10 data and 6 control
// messages transmitted, spread over every sink, with the aggregate counters
// agreeing with the ledger splits.
func balanced() *sim.Result {
	return &sim.Result{
		Procs: []sim.Outcome{{CrashRound: 2}, {}, {OmissiveRounds: 1}},
		Counters: metrics.Counters{
			DataMsgs:    10,
			CtrlMsgs:    6,
			OmittedRecv: 3,
			Late:        2,
		},
		Ledger: metrics.Ledger{
			DeliveredData:  5,
			DeliveredCtrl:  3,
			RecvOmitData:   2,
			RecvOmitCtrl:   1,
			LateData:       1,
			LateCtrl:       1,
			DeadDestData:   1,
			DeadDestCtrl:   1,
			HaltedDestData: 1,
			HaltedDestCtrl: 0,
		},
	}
}

func TestAuditPassesBalancedBooks(t *testing.T) {
	if err := laws.Audit(balanced()); err != nil {
		t.Fatalf("Audit on balanced books: %v", err)
	}
	if err := laws.AuditAll(balanced(), laws.Budget{Crashes: 1, Omissive: 1}); err != nil {
		t.Fatalf("AuditAll within budget: %v", err)
	}
	if err := laws.AuditAll(balanced(), laws.Budget{Crashes: -1, Omissive: -1}); err != nil {
		t.Fatalf("AuditAll unbounded: %v", err)
	}
}

func TestAuditCatchesEachLaw(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*sim.Result)
		law    string
	}{
		{"double-counted delivery", func(r *sim.Result) { r.Ledger.DeliveredData++ }, laws.LawConservationData},
		{"lost data message", func(r *sim.Result) { r.Ledger.DeadDestData-- }, laws.LawConservationData},
		{"lost control message", func(r *sim.Result) { r.Ledger.DeliveredCtrl-- }, laws.LawConservationCtrl},
		{"phantom transmission", func(r *sim.Result) { r.Counters.DataMsgs++ }, laws.LawConservationData},
		{"negative ledger entry", func(r *sim.Result) {
			r.Ledger.DeliveredData--
			r.Ledger.DeadDestData = -1
			r.Ledger.DeliveredData += 2 // sinks still sum: only negativity trips
		}, laws.LawLedgerCounters},
		{"clock violation surfaced", func(r *sim.Result) {
			r.ClockViolation = "des: clock went backwards: event at t=1 after t=2"
		}, laws.LawClock},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := balanced()
			tc.mutate(res)
			err := laws.Audit(res)
			if err == nil {
				t.Fatalf("Audit passed mutated books: %+v", res.Ledger)
			}
			if got := laws.Of(err); got != tc.law {
				t.Fatalf("violated law = %q (%v), want %q", got, err, tc.law)
			}
		})
	}
}

func TestAuditBudget(t *testing.T) {
	res := balanced() // 1 crashed, 1 omissive
	if err := laws.AuditBudget(res, laws.Budget{Crashes: 1, Omissive: 1}); err != nil {
		t.Fatalf("exact budget: %v", err)
	}
	err := laws.AuditBudget(res, laws.Budget{Crashes: 0, Omissive: 1})
	if laws.Of(err) != laws.LawCrashBudget {
		t.Fatalf("crash over budget: got %v", err)
	}
	err = laws.AuditBudget(res, laws.Budget{Crashes: 1, Omissive: 0})
	if laws.Of(err) != laws.LawOmissionBudget {
		t.Fatalf("omission over budget: got %v", err)
	}
	if err := laws.AuditBudget(res, laws.Budget{Crashes: -1, Omissive: -1}); err != nil {
		t.Fatalf("unbounded budget: %v", err)
	}
	// Negative fields disable each law independently.
	if err := laws.AuditBudget(res, laws.Budget{Crashes: -1, Omissive: 5}); err != nil {
		t.Fatalf("crashes unbounded: %v", err)
	}
}

func TestOfClassifiesWrappedViolations(t *testing.T) {
	v := &laws.Violation{Law: laws.LawConservationData, Detail: "books off by one"}
	if got := laws.Of(v); got != laws.LawConservationData {
		t.Errorf("Of(violation) = %q", got)
	}
	wrapped := fmt.Errorf("engine %q: %w", "timed", v)
	if got := laws.Of(wrapped); got != laws.LawConservationData {
		t.Errorf("Of(wrapped) = %q", got)
	}
	joined := errors.Join(errors.New("first"), fmt.Errorf("second: %w", wrapped))
	if got := laws.Of(joined); got != laws.LawConservationData {
		t.Errorf("Of(joined) = %q", got)
	}
	// The first violation in errors.As's depth-first order wins.
	budget := &laws.Violation{Law: laws.LawCrashBudget}
	if got := laws.Of(errors.Join(fmt.Errorf("a: %w", budget), v)); got != laws.LawCrashBudget {
		t.Errorf("Of(joined pair) = %q, want %q", got, laws.LawCrashBudget)
	}
	if got := laws.Of(errors.Join(errors.New("a"), errors.New("b"))); got != "" {
		t.Errorf("Of(joined plain) = %q, want \"\"", got)
	}
	if got := laws.Of(errors.New("plain error")); got != "" {
		t.Errorf("Of(plain) = %q, want \"\"", got)
	}
	if got := laws.Of(nil); got != "" {
		t.Errorf("Of(nil) = %q, want \"\"", got)
	}

	// Classifying allocates nothing: a campaign classifies every finding.
	for _, err := range []error{v, wrapped, joined, errors.New("plain"), nil} {
		if allocs := testing.AllocsPerRun(100, func() { laws.Of(err) }); allocs != 0 {
			t.Errorf("Of(%v) allocates %.1f, want 0", err, allocs)
		}
	}
}

// TestAuditAllocFree pins the audit's zero-cost contract: the passing path
// must not allocate, so it can ride every engine's hot path and the bench
// gate's exact allocs/op comparison.
func TestAuditAllocFree(t *testing.T) {
	res := balanced()
	b := laws.Budget{Crashes: 1, Omissive: 1}
	allocs := testing.AllocsPerRun(200, func() {
		if err := laws.AuditAll(res, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("passing audit allocates %.1f allocs/op, want 0", allocs)
	}
}
