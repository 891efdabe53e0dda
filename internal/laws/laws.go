// Package laws is the post-run audit layer: a set of conservation and
// ordering laws that every finished execution must satisfy, checked
// mechanically after each run regardless of which engine produced it.
//
// The differential tests prove the three engines agree with each other; a
// shared accounting or scheduling bug would sail through every cross-check.
// The laws close that gap: they are engine-independent identities derived
// from the model itself — the paper's cost theorems are statements about
// transmitted messages, so message conservation is checkable on every single
// execution, not just on the analytical bounds.
//
// The catalog (see docs/invariants.md for the full contract):
//
//   - conservation-data / conservation-ctrl: every transmitted message of the
//     kind ends in exactly one ledger sink —
//     sent == delivered + recv-omitted + late + dead-dest + halted-dest;
//   - ledger-counters: no ledger entry is negative (the aggregate counters
//     OmittedRecv and Late are the ledger's sums, filled in by the kernel);
//   - clock: the continuous-time engine's event core executed events in
//     nondecreasing time order with FIFO ties and leaked no events
//     (des.Sim.Audit, surfaced as sim.Result.ClockViolation);
//   - crash-budget / omission-budget: the run exhibits no more crashed or
//     omissive processes than the fault specification allows;
//   - determinism: the serialized report of a run is byte-identical across
//     re-runs and JSON round-trips (checked by agree.VerifyDeterminism and
//     the FuzzReportRoundTrip target, not per-run — running everything twice
//     would double every benchmark).
//
// All per-run checks are integer comparisons over fields the engines already
// maintain: the passing path performs no allocation, so the audit rides the
// zero-alloc hot paths whose exact allocation counts the agree package's
// TestRunAllocs pins.
//
// The audit applies to successfully finished runs only. A run that aborts
// with an engine error (model violation, horizon exhaustion) is legitimately
// partial — messages can be in flight when the run is cut — so callers must
// skip the audit when the engine returned an error.
package laws

import (
	"fmt"

	"repro/internal/sim"
)

// Law names, used to classify violations in findings output ([Of]).
const (
	// LawConservationData: transmitted data messages == sum of data sinks.
	LawConservationData = "conservation-data"
	// LawConservationCtrl: transmitted control messages == sum of ctrl sinks.
	LawConservationCtrl = "conservation-ctrl"
	// LawLedgerCounters: no ledger field is negative.
	LawLedgerCounters = "ledger-counters"
	// LawClock: the event core's execution order respected the simulated
	// clock (monotone time, FIFO ties, no leaked events).
	LawClock = "clock"
	// LawCrashBudget: observed crashes never exceed the fault budget.
	LawCrashBudget = "crash-budget"
	// LawOmissionBudget: observed omissive processes never exceed the budget.
	LawOmissionBudget = "omission-budget"
	// LawDeterminism: the serialized report is byte-identical across re-runs
	// and JSON round-trips.
	LawDeterminism = "determinism"
)

// Violation is a law violation: which law, and what the books actually said.
type Violation struct {
	// Law is the violated law's name (one of the Law* constants).
	Law string
	// Detail describes the violation with the numbers involved.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string { return "laws: " + v.Law + ": " + v.Detail }

// Of classifies an error: it returns the name of the violated law if err is
// (or wraps) a *Violation, and "" otherwise. It walks the tree errors.As
// walks, in the same depth-first order, by type assertion: errors.As would
// move its target to the heap on every call.
func Of(err error) string {
	for err != nil {
		switch e := err.(type) {
		case *Violation:
			return e.Law
		case interface{ Unwrap() error }:
			err = e.Unwrap()
		case interface{ Unwrap() []error }:
			for _, inner := range e.Unwrap() {
				if law := Of(inner); law != "" {
					return law
				}
			}
			return ""
		default:
			return ""
		}
	}
	return ""
}

// Budget bounds the faults a fault specification can inject into one run.
// A negative field means unbounded (the law is not checked for that class).
type Budget struct {
	// Crashes bounds the number of crashed processes.
	Crashes int
	// Omissive bounds the number of distinct omission-faulty processes.
	Omissive int
}

// Audit checks the budget-free laws on a successfully finished run: message
// conservation per kind, non-negative ledger entries, and the event-clock
// contract. It returns nil — without allocating — when every law holds, and
// a *Violation for the first broken law otherwise.
func Audit(res *sim.Result) error {
	l := &res.Ledger
	c := &res.Counters
	if l.DeliveredData < 0 || l.DeliveredCtrl < 0 ||
		l.RecvOmitData < 0 || l.RecvOmitCtrl < 0 ||
		l.LateData < 0 || l.LateCtrl < 0 ||
		l.DeadDestData < 0 || l.DeadDestCtrl < 0 ||
		l.HaltedDestData < 0 || l.HaltedDestCtrl < 0 {
		return &Violation{Law: LawLedgerCounters,
			Detail: fmt.Sprintf("negative ledger entry: %s", l.String())}
	}
	if sunk := l.SinkData(); sunk != c.DataMsgs {
		return &Violation{Law: LawConservationData,
			Detail: fmt.Sprintf("transmitted %d data messages but sinks account for %d (%s)",
				c.DataMsgs, sunk, l.String())}
	}
	if sunk := l.SinkCtrl(); sunk != c.CtrlMsgs {
		return &Violation{Law: LawConservationCtrl,
			Detail: fmt.Sprintf("transmitted %d control messages but sinks account for %d (%s)",
				c.CtrlMsgs, sunk, l.String())}
	}
	if res.ClockViolation != "" {
		return &Violation{Law: LawClock, Detail: res.ClockViolation}
	}
	return nil
}

// AuditBudget checks the fault-budget laws: the run's observed crashes and
// omissive processes never exceed the budget the fault specification was
// allowed to spend. Negative budget fields disable the corresponding law.
// Both counts come from one pass over res.Procs.
func AuditBudget(res *sim.Result, b Budget) error {
	f, k := 0, 0
	for _, o := range res.Procs {
		if o.CrashRound != 0 {
			f++
		}
		if o.OmissiveRounds != 0 {
			k++
		}
	}
	if b.Crashes >= 0 && f > b.Crashes {
		return &Violation{Law: LawCrashBudget,
			Detail: fmt.Sprintf("%d processes crashed, budget allows %d", f, b.Crashes)}
	}
	if b.Omissive >= 0 && k > b.Omissive {
		return &Violation{Law: LawOmissionBudget,
			Detail: fmt.Sprintf("%d omissive processes, budget allows %d", k, b.Omissive)}
	}
	return nil
}

// AuditAll runs every per-run law: the budget-free laws of [Audit] followed
// by the budget laws of [AuditBudget].
func AuditAll(res *sim.Result, b Budget) error {
	if err := Audit(res); err != nil {
		return err
	}
	return AuditBudget(res, b)
}
