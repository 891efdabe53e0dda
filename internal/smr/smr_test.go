package smr_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/workload"
)

// logCase is one replicated log on the round engine and the TotalRounds it
// must take. serveLog saturates it with a closed loop of one command per
// slot, so slot s launches at time s-1 and a crash at time s-1 kills the
// replica for slot s onwards.
type logCase struct {
	opts smr.ServeOptions
	want int
}

// serveLog runs each case for its MaxSlots slots, checks its TotalRounds,
// and returns the results in order. Serve itself checks every slot's
// agreement, validity and fault budget, and the cross-slot conservation of
// the whole log.
func serveLog(t *testing.T, cases ...logCase) []*smr.ServeResult {
	t.Helper()
	var out []*smr.ServeResult
	for _, c := range cases {
		clients, err := workload.NewClosed(c.opts.MaxSlots, 0, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts := c.opts
		opts.Engine, opts.Clients, opts.BatchLimit = harness.KindDeterministic, clients, 1
		res := mustServe(t, opts)
		if res.Slots != opts.MaxSlots || res.TotalRounds != c.want {
			t.Errorf("%+v: %d slots in %d rounds, want %d in %d",
				c.opts, res.Slots, res.TotalRounds, opts.MaxSlots, c.want)
		}
		out = append(out, res)
	}
	return out
}

func TestFailureFreeOneRoundPerSlot(t *testing.T) {
	res := serveLog(t, logCase{smr.ServeOptions{N: 5, MaxSlots: 20}, 20})[0]
	if res.RoundsHist[1] != 20 {
		t.Errorf("rounds histogram %v, want every slot in one round", res.RoundsHist)
	}
}

func TestEarlyStopCostsTwoRoundsPerSlot(t *testing.T) {
	serveLog(t, logCase{smr.ServeOptions{N: 5, MaxSlots: 10, Protocol: smr.ProtocolEarlyStop}, 20})
}

func TestCrashMidLogKeepsConsistency(t *testing.T) {
	// p1 dies before slot 3: slots 1–2 commit in one round each; from slot
	// 3 on p2 leads, and the dead p1 wastes round 1 of every slot:
	// 1+1 + 4×2 = 10.
	res := serveLog(t, logCase{smr.ServeOptions{N: 4, MaxSlots: 6,
		CrashAt: map[sim.ProcID]float64{1: 2}}, 10})[0]
	if res.CrashSlot[1] != 3 {
		t.Errorf("crash slot = %d, want 3", res.CrashSlot[1])
	}
}

func TestCascadingCrashes(t *testing.T) {
	res := serveLog(t, logCase{smr.ServeOptions{N: 5, MaxSlots: 8,
		CrashAt: map[sim.ProcID]float64{1: 1, 2: 3, 3: 5}}, 23})[0]
	if len(res.Crashed) != 3 {
		t.Errorf("crashed = %v, want 3 replicas", res.Crashed)
	}
}

func TestThroughputAdvantage(t *testing.T) {
	// The system-level payoff: over many slots the extended model commits
	// twice as fast as the classic baseline in the failure-free case.
	serveLog(t,
		logCase{smr.ServeOptions{N: 8, MaxSlots: 50}, 50},
		logCase{smr.ServeOptions{N: 8, MaxSlots: 50, Protocol: smr.ProtocolEarlyStop}, 100})
}

func TestRotateLeaderRestoresThroughput(t *testing.T) {
	// Without rotation, p1's death costs one wasted round on every later
	// slot: 1 + 9×2 = 19. With leader rotation the live lowest-id replica
	// takes the p1 role from the first slot p1 is dead for, so every slot
	// commits in one round: 10. The crash takes effect before a slot's
	// launch, so its cost shows in the recovery time (two rounds static,
	// one rotated), not in a slot led by the dying replica.
	crash := map[sim.ProcID]float64{1: 1}
	res := serveLog(t,
		logCase{smr.ServeOptions{N: 4, MaxSlots: 10, CrashAt: crash}, 19},
		logCase{smr.ServeOptions{N: 4, MaxSlots: 10, CrashAt: crash, RotateLeader: true}, 10})
	for i, want := range []float64{2, 1} {
		if rec := res[i].Recoveries; len(rec) != 1 || rec[0].Commit-rec[0].CrashTime != want {
			t.Errorf("run %d: recoveries %+v, want one of %g", i, rec, want)
		}
	}
}

func TestRotateLeaderUnderCascadingCrashes(t *testing.T) {
	// Every slot commits in one round despite three dead replicas.
	serveLog(t, logCase{smr.ServeOptions{N: 5, MaxSlots: 12, RotateLeader: true,
		CrashAt: map[sim.ProcID]float64{1: 1, 2: 4, 3: 7}}, 12})
}

// TestCrossSlotConservation pins the conservation identity on the aggregated
// log-level ledger: with crashes persisting across slots (a replica dead
// for slot s is dead for every later instance), every message any slot
// transmitted must still land in exactly one sink — crashes at slot
// boundaries must not leak messages from the books.
func TestCrossSlotConservation(t *testing.T) {
	res := serveLog(t,
		logCase{smr.ServeOptions{N: 5, MaxSlots: 6}, 6},
		logCase{smr.ServeOptions{N: 5, MaxSlots: 6, CrashAt: map[sim.ProcID]float64{1: 1, 3: 3}}, 11},
		logCase{smr.ServeOptions{N: 5, MaxSlots: 6, Protocol: smr.ProtocolEarlyStop,
			CrashAt: map[sim.ProcID]float64{2: 0}}, 18},
		logCase{smr.ServeOptions{N: 6, MaxSlots: 8, RotateLeader: true,
			CrashAt: map[sim.ProcID]float64{1: 0, 2: 2, 3: 4}}, 8})
	for i, r := range res {
		l, c := &r.Ledger, &r.Counters
		if l.SinkData() != c.DataMsgs || l.SinkCtrl() != c.CtrlMsgs {
			t.Errorf("run %d: %s transmitted, sinks account for %d data %d control (%s)",
				i, c.String(), l.SinkData(), l.SinkCtrl(), l.String())
		}
		// Crash-model log: nothing may land in the omission or late sinks.
		if l.RecvOmitData+l.RecvOmitCtrl+l.LateData+l.LateCtrl != 0 {
			t.Errorf("run %d: omission/late sinks non-zero in the crash model: %s", i, l.String())
		}
	}
}
