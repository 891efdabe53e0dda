package smr_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/workload"
)

// TestCommandEncodingCollisionFree pins the scale-track fix: the seed's
// slot*1000+id encoding aliased Command(s, 1000) with Command(s+1, 0), so
// replica ids >= 1000 silently collided across slots. The widened encoding
// must keep every (slot, id) pair distinct through n=4096.
func TestCommandEncodingCollisionFree(t *testing.T) {
	// The exact aliasing pair of the seed encoding.
	if smr.Command(3, 1000) == smr.Command(4, 0) {
		t.Fatal("Command(3, 1000) == Command(4, 0): the slot*1000+id aliasing is back")
	}
	const n = 4096
	seen := make(map[sim.Value]struct{}, 8*n)
	for slot := 1; slot <= 8; slot++ {
		for id := sim.ProcID(1); id <= n; id++ {
			v := smr.Command(slot, id)
			if _, dup := seen[v]; dup {
				t.Fatalf("Command(%d, %d) = %d collides with an earlier pair", slot, id, int64(v))
			}
			seen[v] = struct{}{}
		}
	}
	// Large-slot values stay clear of each other and of sim.NoValue.
	if smr.Command(1<<30, 1) == smr.Command(1<<30+1, 1) {
		t.Error("large slots collide")
	}
	if smr.Command(1<<30, n) == sim.NoValue {
		t.Error("command encoding produced the NoValue sentinel")
	}
}

// TestCommandRangeChecks pins the panics on out-of-field arguments.
func TestCommandRangeChecks(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("id over field", func() { smr.Command(1, 1<<smr.CommandIDBits) })
	mustPanic("negative id", func() { smr.Command(1, -1) })
	mustPanic("negative slot", func() { smr.Command(-1, 1) })
	mustPanic("slot over field", func() { smr.Command(1<<43, 1) })
	// The field boundaries themselves are legal.
	_ = smr.Command(1, 1<<smr.CommandIDBits-1)
	_ = smr.Command(1<<42-1, 1)
}

// TestServeAllocsPerSlot gates the reuse path in allocation terms: every
// slot of a service runs on the one engine its cache built and resets the
// session's one consensus instance, and the engine recycles its result, so a
// slot itself allocates nothing: the 0.86 per slot at n=8 on the round engine
// for CRW (0.98 for earlystop) is the session's set-up spread over its
// slots, against the ~170 of constructing an n=8 engine per slot or the 9.8
// of rebuilding the instance.
func TestServeAllocsPerSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const slots = 50
	for _, c := range []struct {
		proto smr.Protocol
		pin   float64
	}{{smr.ProtocolCRW, 0.86}, {smr.ProtocolEarlyStop, 0.98}} {
		t.Run(string(c.proto), func(t *testing.T) {
			avg := testing.AllocsPerRun(10, func() {
				clients, err := workload.NewClosed(8, 0, false, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := smr.Serve(smr.ServeOptions{N: 8, Protocol: c.proto, Engine: harness.KindDeterministic,
					Clients: clients, MaxSlots: slots}); err != nil {
					t.Fatal(err)
				}
			})
			if perSlot := avg / slots; perSlot > c.pin {
				t.Errorf("allocs per slot = %.2f, want <= %g (engine or instance reuse lost?)", perSlot, c.pin)
			}
		})
	}
}
