package experiments

import (
	"fmt"

	"repro/agree"
	"repro/internal/core"
	"repro/internal/timing"
)

// e1RoundsVsFaults reproduces Theorem 1 and the Section 3.2 discussion: the
// paper's algorithm decides in exactly f+1 rounds under the worst-case
// coordinator-killing schedule, and in a single round whenever the first
// coordinator survives, independent of n and of the number of non-coordinator
// crashes.
func e1RoundsVsFaults() *Table {
	t := &Table{
		Claim:   "decision in at most f+1 rounds; exactly 1 round when p1 does not crash (Theorem 1)",
		Columns: []string{"n", "f", "rounds", "f+1", "match"},
	}
	// The whole matrix is submitted as one batch: the worst-case grid plus
	// the one-round scripted cases (crash high-id processes, keep p1 alive).
	type spec struct {
		n, f     int
		nonCoord bool
	}
	var specs []spec
	var configs []agree.Config
	for _, n := range []int{4, 8, 16, 32, 64} {
		for _, f := range []int{0, 1, 2, 3, n / 2, n - 1} {
			if f >= n {
				continue
			}
			specs = append(specs, spec{n: n, f: f})
			configs = append(configs, agree.Config{N: n, Protocol: agree.ProtocolCRW,
				Faults: agree.CoordinatorCrashes(f)})
		}
	}
	for _, n := range []int{8, 32} {
		specs = append(specs, spec{n: n, nonCoord: true})
		configs = append(configs, agree.Config{N: n, Protocol: agree.ProtocolCRW,
			Faults: agree.ScriptedFaults(map[int]agree.CrashPlan{
				n:     {Round: 1},
				n - 1: {Round: 1},
			})})
	}
	sr := batchSweep(configs, sweepOpts)
	ok := true
	for i, sp := range specs {
		item := sr.Items[i]
		if sp.nonCoord {
			if item.Err != nil {
				ok = false
				continue
			}
			rep := item.Report
			match := rep.ConsensusErr == nil && rep.MaxDecideRound() == 1 && rep.Faults() == 2
			ok = ok && match
			t.AddRow(sp.n, fmt.Sprintf("%d (non-coord)", rep.Faults()), rep.MaxDecideRound(), 1, match)
			continue
		}
		if item.Err != nil {
			t.AddRow(sp.n, sp.f, "error: "+item.Err.Error(), sp.f+1, false)
			ok = false
			continue
		}
		rep := item.Report
		match := rep.ConsensusErr == nil && rep.MaxDecideRound() == sp.f+1
		ok = ok && match
		t.AddRow(sp.n, sp.f, rep.MaxDecideRound(), sp.f+1, match)
	}
	t.Verdict = verdict(ok, "rounds equal f+1 under the coordinator killer; 1 round when p1 survives")
	return t
}

// e4Baselines reproduces the introduction's comparison: the paper's f+1
// against the classic model's min(f+2, t+1) early-stopping bound and the
// t+1 of FloodSet, measured on real executions.
func e4Baselines() *Table {
	t := &Table{
		Claim:   "f+1 vs min(f+2, t+1) vs t+1 (Section 1)",
		Columns: []string{"n", "t", "f", "crw", "earlystop", "floodset", "f+1", "min(f+2,t+1)", "t+1"},
	}
	// Each table row is a triple of configurations (one per protocol); the
	// triples are flattened into a single sweep batch and read back with a
	// stride of three.
	type spec struct{ n, tt, f int }
	var specs []spec
	var configs []agree.Config
	for _, n := range []int{4, 8, 16, 32} {
		tt := n - 1
		for _, f := range []int{0, 1, 2, n / 2} {
			if f > tt {
				continue
			}
			specs = append(specs, spec{n: n, tt: tt, f: f})
			configs = append(configs,
				agree.Config{N: n, Protocol: agree.ProtocolCRW,
					Faults: agree.CoordinatorCrashes(f)},
				agree.Config{N: n, T: tt, Protocol: agree.ProtocolEarlyStop,
					Faults: agree.CoordinatorCrashes(f)},
				agree.Config{N: n, T: tt, Protocol: agree.ProtocolFloodSet,
					Faults: agree.CoordinatorCrashes(f)})
		}
	}
	sr := batchSweep(configs, sweepOpts)
	ok := true
	for i, sp := range specs {
		crwIt, esIt, fsIt := sr.Items[3*i], sr.Items[3*i+1], sr.Items[3*i+2]
		if crwIt.Err != nil || esIt.Err != nil || fsIt.Err != nil {
			ok = false
			continue
		}
		crw, es, fs := crwIt.Report, esIt.Report, fsIt.Report
		wantES := timing.ClassicOptimalRounds(sp.f, sp.tt)
		rowOK := crw.MaxDecideRound() == sp.f+1 &&
			es.MaxDecideRound() <= wantES &&
			fs.MaxDecideRound() == sp.tt+1 &&
			crw.ConsensusErr == nil && es.ConsensusErr == nil && fs.ConsensusErr == nil
		ok = ok && rowOK
		t.AddRow(sp.n, sp.tt, sp.f, crw.MaxDecideRound(), es.MaxDecideRound(), fs.MaxDecideRound(),
			sp.f+1, wantES, sp.tt+1)
	}
	t.Verdict = verdict(ok, "CRW always one round ahead of the classic early-stopping baseline")
	return t
}

// e2BitComplexity reproduces Theorem 2: best-case bits (n-1)(b+1) measured
// exactly, and worst-case bits bounded by the theorem's scenario sum.
func e2BitComplexity() *Table {
	t := &Table{
		Claim:   "best case (n-1)(b+1) bits; worst case bounded by sum_{i<=t+1}(n-i)(b+1)",
		Columns: []string{"n", "b", "scenario", "msgs", "bits", "formula", "within"},
	}
	ok := true
	for _, n := range []int{4, 8, 16, 64} {
		for _, b := range []int{8, 64, 1024} {
			// Best case: failure-free single round.
			rep, err := agree.Run(agree.Config{N: n, Bits: b})
			if err != nil {
				ok = false
				continue
			}
			best := core.BestCaseBits(n, b)
			match := rep.Counters.TotalBits() == best
			ok = ok && match
			t.AddRow(n, b, "best (f=0)", rep.Counters.TotalMsgs(), rep.Counters.TotalBits(), best, match)

			// Adversarial case: every coordinator crashes after a full data
			// step but before any commit escapes — the schedule that
			// maximizes transmitted data while forcing the run to t+1
			// rounds. (Theorem 2's scenario also counts full commit
			// sequences; delivering them would end the run early, which is
			// why the theorem is an upper bound — see EXPERIMENTS.md.)
			tt := n - 1
			worstRep, err := agree.Run(agree.Config{N: n, Bits: b,
				Faults: agree.CoordinatorCrashesDelivering(tt, 0)})
			if err != nil {
				ok = false
				continue
			}
			bound := core.WorstCaseBits(n, tt, b)
			within := worstRep.Counters.TotalBits() <= bound
			ok = ok && within
			t.AddRow(n, b, fmt.Sprintf("adversarial (f=%d)", worstRep.Faults()),
				worstRep.Counters.TotalMsgs(), worstRep.Counters.TotalBits(), bound, within)
		}
	}
	t.Verdict = verdict(ok, "best case exact; adversarial runs within the Theorem 2 bound")
	return t
}

// e9Messages reproduces the message-count side of Theorem 2's analysis:
// total messages of CRW under heavy fault schedules vs the flooding
// baselines' n(n-1) per round.
func e9Messages() *Table {
	t := &Table{
		Claim:   "CRW sends O(n) messages per round (coordinator only) vs Θ(n²) for flooding (Theorem 2 proof)",
		Columns: []string{"n", "f", "crw msgs", "crw bound", "earlystop msgs", "floodset msgs"},
	}
	// Flattened protocol triples, like E4: one sweep batch, stride three.
	type spec struct{ n, tt, f int }
	var specs []spec
	var configs []agree.Config
	for _, n := range []int{4, 8, 16, 32} {
		tt := n - 1
		for _, f := range []int{0, 1, n / 4, n / 2} {
			specs = append(specs, spec{n: n, tt: tt, f: f})
			configs = append(configs,
				agree.Config{N: n,
					Faults: agree.CoordinatorCrashesDelivering(f, 0)},
				agree.Config{N: n, T: tt, Protocol: agree.ProtocolEarlyStop,
					Faults: agree.CoordinatorCrashes(f)},
				agree.Config{N: n, T: tt, Protocol: agree.ProtocolFloodSet,
					Faults: agree.CoordinatorCrashes(f)})
		}
	}
	sr := batchSweep(configs, sweepOpts)
	ok := true
	for i, sp := range specs {
		crwIt, esIt, fsIt := sr.Items[3*i], sr.Items[3*i+1], sr.Items[3*i+2]
		if crwIt.Err != nil || esIt.Err != nil || fsIt.Err != nil {
			ok = false
			continue
		}
		crw, es, fs := crwIt.Report, esIt.Report, fsIt.Report
		bound := core.WorstCaseDataMessages(sp.n, sp.tt) + core.WorstCaseCommitMessages(sp.n, sp.tt)
		rowOK := crw.Counters.TotalMsgs() <= bound &&
			crw.Counters.TotalMsgs() < fs.Counters.TotalMsgs()
		ok = ok && rowOK
		t.AddRow(sp.n, sp.f, crw.Counters.TotalMsgs(), bound,
			es.Counters.TotalMsgs(), fs.Counters.TotalMsgs())
	}
	t.Verdict = verdict(ok, "coordinator-based CRW transmits far fewer messages than flooding")
	return t
}
