package check_test

import (
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runScript runs the execution of choice script in the faithful
// algorithm's n-process, t-crash space, with a transcript.
func runScript(t *testing.T, n, tt int, script []int) (*sim.Result, *trace.Log) {
	t.Helper()
	ex := crwFactory(n, tt, core.Options{})()(&check.Replayer{Values: script})
	log := trace.New()
	ex.Cfg.Trace = log
	eng, err := sim.NewEngine(ex.Cfg, ex.Procs, ex.Adv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, log
}

func TestWorstScheduleMatchesTPlus1(t *testing.T) {
	// Every walk keeps the t+1-round witness of Theorem 4's tightness: the
	// schedule that crashes one coordinator per round.
	for _, tc := range []struct{ n, t int }{{3, 1}, {3, 2}, {4, 2}, {5, 2}} {
		stats, err := check.Explore(crwFactory(tc.n, tc.t, core.Options{}), fullValidator(check.BoundFPlus1),
			check.ExploreOpts{Budget: 20_000_000})
		if err != nil {
			t.Fatalf("n=%d t=%d: %v", tc.n, tc.t, err)
		}
		if got, want := stats.MaxDecideRound, sim.Round(tc.t+1); got != want {
			t.Errorf("n=%d t=%d: worst decide round = %d, want %d", tc.n, tc.t, got, want)
		}
		if res, _ := runScript(t, tc.n, tc.t, stats.Worst); res.Faults() != tc.t {
			t.Errorf("n=%d t=%d: worst schedule uses %d faults, want %d (one crash per round)",
				tc.n, tc.t, res.Faults(), tc.t)
		}
	}
}

func TestWorstScheduleReplays(t *testing.T) {
	// The kept script is the first execution, in enumeration order, to
	// decide at the maximum round; it reproduces that execution through a
	// Replayer, and its transcript shows the crash cascade.
	const n, tt = 4, 2
	stats, err := check.Explore(crwFactory(n, tt, core.Options{}), fullValidator(check.BoundFPlus1),
		check.ExploreOpts{Budget: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	var first []int
	for bt := check.NewBacktracker(); first == nil; {
		ex := crwFactory(n, tt, core.Options{})()(bt)
		eng, err := sim.NewEngine(ex.Cfg, ex.Procs, ex.Adv)
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := eng.Run(); res.MaxDecideRound() == stats.MaxDecideRound {
			first = bt.Script()
		} else if !bt.Next() {
			t.Fatal("no execution decides at the reported maximum round")
		}
	}
	if !reflect.DeepEqual(stats.Worst, first) {
		t.Errorf("worst script %v, want the first to decide at round %d: %v", stats.Worst, stats.MaxDecideRound, first)
	}
	res, log := runScript(t, n, tt, stats.Worst)
	if res.MaxDecideRound() != stats.MaxDecideRound {
		t.Errorf("replayed decide round = %d, want %d", res.MaxDecideRound(), stats.MaxDecideRound)
	}
	if crashes := len(log.Filter(trace.KindCrash)); crashes != res.Faults() || crashes != tt {
		t.Errorf("transcript shows %d crashes, result %d, want %d", crashes, res.Faults(), tt)
	}
}
