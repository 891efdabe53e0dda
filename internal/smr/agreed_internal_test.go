package smr

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestAgreedValueChecksValidity rejects a slot whose deciders agree on a
// value no replica proposed: agreement alone would commit it.
func TestAgreedValueChecksValidity(t *testing.T) {
	proposals := []sim.Value{Command(1, 1), Command(1, 2), Command(1, 3)}
	decided := func(v sim.Value) *sim.Result {
		return &sim.Result{Procs: []sim.Outcome{
			{Value: v, DecideRound: 1}, {Value: v, DecideRound: 1}, {CrashRound: 1},
		}}
	}
	if _, err := agreedValue(decided(Command(2, 1)), proposals); err == nil ||
		!strings.Contains(err.Error(), "no replica proposed") {
		t.Errorf("agreement on a non-proposal: err = %v, want a validity error", err)
	}
	if v, err := agreedValue(decided(Command(1, 3)), proposals); err != nil || v != Command(1, 3) {
		t.Errorf("agreement on a proposal: %d, %v", int64(v), err)
	}
	res := decided(Command(1, 1))
	res.Procs[1].Value = Command(1, 2)
	if _, err := agreedValue(res, proposals); err == nil {
		t.Error("divergent decisions accepted")
	}
}
