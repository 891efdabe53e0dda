package smr_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/lan"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/timed"
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
// slot of a service runs on the one engine its executor built and resets the
// session's one consensus instance, the engine recycles its result, a batch
// pops straight into the latency buffer and a slot's outcome comes back in
// the executor's fixed ring, so a slot itself allocates nothing. The figures
// are the session's set-up spread over its slots: 0.72 per slot at n=8 on
// the round engine (either protocol, closed loop), 0.52 for an open-loop
// Poisson session with its executor goroutine, and on the timed engine 0.70
// with a re-seeded Jitter model (1.94 while each slot boxed its Jitter) and
// 0.84 in serve_crash's shape (1.08 before the executor); against the ~170
// of constructing an n=8 engine per slot or the 9.8 of rebuilding the
// instance. A race build allocates once more on the timed engine.
func TestServeAllocsPerSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const slots = 50
	closed := func(proto smr.Protocol) func() (smr.ServeOptions, error) {
		return func() (smr.ServeOptions, error) {
			c, err := workload.NewClosed(8, 0, false, 0)
			return smr.ServeOptions{N: 8, Protocol: proto, Engine: harness.KindDeterministic, MaxSlots: slots,
				Clients: c}, err
		}
	}
	open := func(rate float64, seed int64, opts smr.ServeOptions) func() (smr.ServeOptions, error) {
		return func() (smr.ServeOptions, error) {
			var err error
			opts.Arrivals, err = workload.NewOpen(workload.Poisson{Rate: rate}, seed)
			opts.N, opts.MaxSlots, opts.BatchLimit = 8, slots, 32
			return opts, err
		}
	}
	for _, c := range []struct {
		name      string
		opts      func() (smr.ServeOptions, error)
		pin, race float64
	}{
		{"crw", closed(smr.ProtocolCRW), 0.72, 0.72},
		{"earlystop", closed(smr.ProtocolEarlyStop), 0.72, 0.72},
		{"open-loop", open(40, 0, smr.ServeOptions{Engine: harness.KindDeterministic}), 0.52, 0.52},
		{"jitter", open(40, 0, smr.ServeOptions{
			Latency: timed.Jitter{D: 1, Delta: 0.1, Floor: 0.6, Spread: 0.3, Seed: 23}}), 0.70, 0.72},
		// serve_crash's options: the 1g profile, leader rotation and a leader
		// crash mid-stream, at 200k commands per simulated second.
		{"serve-crash", open(200e3, 1, smr.ServeOptions{RotateLeader: true,
			Latency: timed.Profile{P: lan.Ethernet1G}, CrashAt: map[sim.ProcID]float64{1: 0.0025}}), 0.84, 0.86},
	} {
		t.Run(c.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(10, func() {
				opts, err := c.opts()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := smr.Serve(opts); err != nil {
					t.Fatal(err)
				}
			})
			pin := c.pin
			if smr.RaceEnabled {
				pin = c.race
			}
			if perSlot := avg / slots; perSlot > pin {
				t.Errorf("allocs per slot = %.2f, want <= %g (engine or instance reuse lost?)", perSlot, pin)
			}
		})
	}
}
