package lockstep_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/lockstep"
	"repro/internal/rng"
	"repro/internal/sim"
)

// maskLog forwards to a chooser-driven tree and keeps every mask the tree
// hands out with a snapshot taken at the hand-out.
type maskLog struct {
	tree  *adversary.OmittingFromChooser
	masks [][2][]bool
}

func (l *maskLog) keep(m []bool) {
	if m != nil {
		l.masks = append(l.masks, [2][]bool{m, slices.Clone(m)})
	}
}

func (l *maskLog) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	crash, out := l.tree.Crashes(p, r, plan)
	if crash {
		l.keep(out.DataDelivered)
	}
	return crash, out
}

// omitMaskLog is the sim.Omitter face of a maskLog.
type omitMaskLog struct{ *maskLog }

func (l omitMaskLog) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	om := l.tree.Omits(p, r, plan)
	l.keep(om.Data)
	l.keep(om.Ctrl)
	l.keep(om.Recv)
	return om
}

// TestRuntimeShardsChooserMasks runs the fuzzer's and the explorer's
// fault-choice tree (adversary.FromChooser, seeded) on one shard per
// process, one runtime and one tree reset across the seeds. Each fault's
// masks are regions of the tree's run arena: shards read them outside the
// adversary guard while another shard's consult carves the next. Every
// mask must read at the run's end what it read when handed out, and under
// -race (scripts/verify.sh runs this with -count=10) no shard's read may
// race another's carve.
func TestRuntimeShardsChooserMasks(t *testing.T) {
	const n, seeds = 8, 40
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	for _, omit := range []bool{false, true} {
		src := &adversary.Seeded{CrashProb: 0.35}
		if omit {
			src.SendOmitProb, src.RecvOmitProb = 0.3, 0.3
		}
		log := &maskLog{tree: adversary.NewFromChooserWithOmissions(src, n-1, 0, 0, n)}
		var adv sim.Adversary = log
		if omit {
			adv = omitMaskLog{log}
		}
		cfg := lockstep.Config{Model: sim.ModelExtended, Horizon: n + 2}
		var rt *lockstep.Runtime
		faults := 0
		for seed := int64(0); seed < seeds; seed++ {
			src.Stream = rng.New(seed)
			log.tree.Reset()
			log.masks = log.masks[:0]
			procs := core.NewSystem(props(n), core.Options{})
			var err error
			if rt == nil {
				rt, err = lockstep.New(cfg, procs, adv)
				if err == nil {
					defer rt.Close()
				}
			} else {
				err = rt.Reset(cfg, procs, adv)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Run(); err != nil {
				t.Fatalf("omit=%t, seed %d: %v", omit, seed, err)
			}
			for i, m := range log.masks {
				if !slices.Equal(m[0], m[1]) {
					t.Fatalf("omit=%t, seed %d: mask %d was rewritten within its run: %v, handed out as %v",
						omit, seed, i, m[0], m[1])
				}
			}
			faults += len(log.masks)
		}
		if faults < 2*seeds {
			t.Errorf("omit=%t: %d masks over %d seeds; the runs must fault", omit, faults, seeds)
		}
	}
}
