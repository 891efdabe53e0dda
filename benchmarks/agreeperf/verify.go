package main

// verify.go checks the program's outputs. A failed check counts the operation
// as failed (failed_ops_share) and makes the run exit non-zero.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/agree"
)

// checkItem validates one sweep item against the claims of the paper for its
// configuration and returns the reason it fails, or "".
func checkItem(s spec, item *agree.SweepItem) string {
	if item.Err != nil {
		return "run error: " + item.Err.Error()
	}
	rep := item.Report
	if rep.ConsensusErr != nil {
		return "consensus: " + rep.ConsensusErr.Error()
	}
	// Uniform agreement once more from the raw map, so a report whose
	// ConsensusErr was lost still fails here.
	first, have := int64(0), false
	for _, v := range rep.Decisions {
		if have && v != first {
			return fmt.Sprintf("two decisions: %d and %d", first, v)
		}
		first, have = v, true
	}
	f, got := len(rep.Crashed), rep.MaxDecideRound()
	switch s.Proto {
	case agree.ProtocolCRW:
		if got > f+1 {
			return fmt.Sprintf("decide round %d exceeds f+1 = %d", got, f+1)
		}
		if s.Plans == nil && (f != s.F || got != s.F+1) {
			return fmt.Sprintf("coordinator crashes f=%d: %d crashed, decided in round %d, want %d", s.F, f, got, s.F+1)
		}
	case agree.ProtocolEarlyStop:
		if bound := min(f+2, s.T+1); got > bound {
			return fmt.Sprintf("early-stop decide round %d exceeds min(f+2,t+1) = %d", got, bound)
		}
	case agree.ProtocolFloodSet:
		if got != s.T+1 {
			return fmt.Sprintf("floodset decide round %d, want t+1 = %d", got, s.T+1)
		}
	}
	return ""
}

// digester folds the semantic outcome of a pass over L — decisions, decide
// rounds, crash set and traffic counters of every configuration — into one
// digest. The three sweep workloads must print equal digests: the engines
// price one execution differently, they do not change it. It reuses one
// buffer so checking a pass allocates next to nothing.
type digester struct{ buf []byte }

func (d *digester) int(v int64) {
	d.buf = strconv.AppendInt(d.buf, v, 10)
	d.buf = append(d.buf, ',')
}

// add appends the outcome of configuration i (processes are 1..n).
func (d *digester) add(i, n int, rep *agree.Report) {
	d.int(int64(i))
	for id := 1; id <= n; id++ {
		if v, ok := rep.Decisions[id]; ok {
			d.int(v)
			d.int(int64(rep.DecideRound[id]))
		} else {
			d.buf = append(d.buf, '-', ',')
		}
		if r, ok := rep.Crashed[id]; ok {
			d.int(int64(r))
		} else {
			d.buf = append(d.buf, '-', ',')
		}
	}
	c := rep.Counters
	for _, v := range []int{c.DataMsgs, c.CtrlMsgs, c.DataBits, c.CtrlBits, c.DroppedData, c.DroppedCtrl,
		c.OmittedData, c.OmittedCtrl, c.OmittedRecv, c.Late, c.Rounds} {
		d.int(int64(v))
	}
	d.buf = append(d.buf, ';')
}

// sum returns the digest and resets the buffer.
func (d *digester) sum() string {
	h := sha256.Sum256(d.buf)
	d.buf = d.buf[:0]
	return hex.EncodeToString(h[:8])
}

// fuzzDigest summarizes a campaign report for the worker-count equality check.
func fuzzDigest(rep *agree.FuzzReport) string {
	var d digester
	d.int(int64(rep.Seeds))
	d.int(int64(rep.Executions))
	d.int(int64(rep.MaxRounds))
	d.int(int64(rep.MaxDecideRound))
	d.int(int64(rep.MaxFaults))
	for r := 0; r <= rep.MaxDecideRound+1; r++ {
		d.int(int64(rep.RoundHistogram[r]))
	}
	for _, f := range rep.Findings {
		d.int(f.Seed)
		d.buf = append(d.buf, f.Script...)
		d.buf = append(d.buf, '|')
		d.buf = append(d.buf, f.Shrunk...)
		d.buf = append(d.buf, ';')
	}
	return d.sum()
}

// checkFuzzBatch validates one campaign batch and returns how many of its
// executions count as failed, with the reason. The faithful campaign must
// find nothing; the ablation campaign must find violations and shrink every
// one of them to a script that still fails.
func checkFuzzBatch(ablation bool, rep *agree.FuzzReport, err error) (int, string) {
	if err != nil {
		return 1, "campaign error: " + err.Error()
	}
	if !ablation {
		if n := len(rep.Findings); n > 0 {
			return n, fmt.Sprintf("faithful campaign: %d findings, first at seed %d: %v", n, rep.Findings[0].Seed, rep.Findings[0].Err)
		}
		return 0, ""
	}
	if len(rep.Findings) == 0 {
		return 1, "ablation campaign found no violation"
	}
	bad := 0
	for _, f := range rep.Findings {
		if f.ShrunkErr == nil {
			bad++
		}
	}
	if bad > 0 {
		return bad, fmt.Sprintf("ablation campaign: %d findings were not shrunk to a failing script", bad)
	}
	return 0, ""
}

// checkServe validates one session report: no error (Serve audits the laws
// and per-slot agreement itself), the commands committed, and exactly one
// leader recovery.
func checkServe(cmds int, rep *agree.ServeReport, err error) string {
	if err != nil {
		return "serve error: " + err.Error()
	}
	if rep.Commands < cmds {
		return fmt.Sprintf("committed %d of %d commands", rep.Commands, cmds)
	}
	if len(rep.Recoveries) != 1 {
		return fmt.Sprintf("%d leader recoveries, want exactly 1", len(rep.Recoveries))
	}
	return ""
}
