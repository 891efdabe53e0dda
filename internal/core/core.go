// Package core implements the paper's primary contribution: the
// rotating-coordinator uniform consensus algorithm of Figure 1 for the
// extended synchronous model (Cao, Raynal, Wang, Wu — ICPP 2006).
//
// The algorithm, for process p_i with proposal v_i:
//
//	est := v_i
//	round r = 1, 2, ...:
//	  if r == i:            // p_i is the coordinator of round r
//	    send DATA(est) to every p_j, j > i          (line 4, data step)
//	    send COMMIT to p_n, p_{n-1}, ..., p_{i+1}   (line 5, ordered control step)
//	    return est                                  (line 6: decide)
//	  if r < i:
//	    if DATA(v) received from p_r: est := v      (line 7)
//	    if COMMIT received from p_r:  return est    (line 8: decide)
//	  if r > i: cannot happen                       (line 9)
//
// Properties reproduced by the experiments in this repository: uniform
// consensus, decision in at most f+1 rounds (f = actual crashes), one round
// when p_1 does not crash, and optimality (Section 5's f+1 lower bound).
//
// A note on the control sending order (line 5). The published text renders
// the loop bounds of line 5 illegibly, but the termination proof (Lemma 3)
// concludes from "p_{f+1} received the COMMIT" that every process p_j with
// j >= f+1 received it; with the model's prefix-delivery rule this holds only
// if the COMMIT sequence is ordered by decreasing process id (p_n first).
// With the increasing order the f+1 bound is false: p_1 can crash while
// delivering DATA to everyone and COMMIT to p_2..p_{n-1} but not p_n, after
// which every round-2..n-1 coordinator has already decided and returned, and
// p_n only decides in round n with f=1. This package therefore uses the
// decreasing order, and ships the increasing order as an ablation
// (OrderAscending) whose bound violation is demonstrated by the exhaustive
// explorer (experiment E10).
package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/sim"
)

// CommitOrder selects the destination order of the control sending step.
type CommitOrder uint8

const (
	// OrderDescending is the faithful order: COMMIT to p_n, ..., p_{i+1}.
	// The prefix-delivery rule then guarantees that if p_j receives the
	// COMMIT, so does every p_k with k > j — the property Lemma 3 relies on.
	OrderDescending CommitOrder = iota
	// OrderAscending is the ablation order: COMMIT to p_{i+1}, ..., p_n.
	// Uniform agreement still holds, but the f+1 decision bound fails.
	OrderAscending
)

// Options tunes the protocol for ablation experiments. The zero value is the
// faithful algorithm of Figure 1.
type Options struct {
	// Order is the control-message destination order.
	Order CommitOrder
	// CommitAsData sends the COMMIT as ordinary one-bit data messages in the
	// data sending step instead of control messages, i.e. it removes the
	// extended model's second step entirely. Crash delivery then becomes
	// arbitrary-subset, which breaks uniform agreement (a process can receive
	// the COMMIT without the DATA and decide a stale estimate) — experiment
	// E10 exhibits the counterexample. This variant is also what the
	// classic model would force, making the run legal under sim.ModelClassic.
	CommitAsData bool
	// Bits is the proposal bit width b of Theorem 2 (default 64).
	Bits int
}

func (o Options) bits() int {
	if o.Bits <= 0 {
		return 64
	}
	return o.Bits
}

// commitTag is the payload of a COMMIT sent as a data message (ablation
// only). It costs one bit, like a genuine control message.
type commitTag struct{}

// Bits returns 1: a commit carries no data.
func (commitTag) Bits() int { return 1 }

// String renders the tag.
func (commitTag) String() string { return "commit" }

// Protocol is one process executing the algorithm of Figure 1. It implements
// sim.Process for the deterministic engine and is also reused by the
// goroutine runtime.
type Protocol struct {
	id  sim.ProcID
	sys *system

	est      sim.Value
	decision sim.Value
	decided  bool
	halted   bool
	violated bool
}

// system is the state the n processes of one consensus instance share. Only
// the coordinator p_r sends in round r, so one plan buffer and one payload
// slot serve the whole instance: the round's coordinator refills both on
// every Send, and a plan and its payload are valid only during their round
// (the sim.Process.Send contract).
type system struct {
	n    int
	opts Options
	data []sim.Outgoing // empty; capacity n-1, or 2(n-1) under CommitAsData
	est  sim.Est        // the DATA payload every message of the plan points at
}

// reset makes sys the shared state of an n-process system, keeping its plan
// buffer when that is large enough.
func (sys *system) reset(n int, opts Options) {
	dataCap := max(n-1, 0)
	if opts.CommitAsData {
		dataCap *= 2 // the commit messages ride in the data step too
	}
	data := sys.data[:0]
	if cap(data) < dataCap {
		data = make([]sim.Outgoing, 0, dataCap)
	}
	*sys = system{n: n, opts: opts, data: data}
}

// System holds the storage of one consensus instance for reuse: Reset builds
// an instance in it, overwriting the one the previous Reset built. The zero
// value is ready to use.
type System struct {
	sys   *system
	slab  []Protocol
	procs []sim.Process
}

// NewSystem builds the n processes of one consensus instance, with
// proposals[i] the proposal of p_{i+1}. The processes live in one slab and
// share one system state, plan buffer and payload slot included: a system
// costs a constant number of allocations, not one per process.
func NewSystem(proposals []sim.Value, opts Options) []sim.Process {
	var s System
	return s.Reset(proposals, opts)
}

// Reset builds the n = len(proposals) processes of a fresh instance, as
// NewSystem does, in the storage of s: its slab, its []sim.Process and its
// shared state are refilled in place, and grown only when n or the plan
// size exceeds what s has held. The processes a previous Reset returned
// become the new instance's, so that instance must be finished with.
func (s *System) Reset(proposals []sim.Value, opts Options) []sim.Process {
	n := len(proposals)
	if s.sys == nil {
		s.sys = new(system)
	}
	s.sys.reset(n, opts)
	if cap(s.slab) < n {
		s.slab = make([]Protocol, n)
		s.procs = make([]sim.Process, n)
	}
	slab, procs := s.slab[:n], s.procs[:n]
	for i, v := range proposals {
		slab[i] = Protocol{id: sim.ProcID(i + 1), sys: s.sys, est: v}
		procs[i] = &slab[i]
	}
	return procs
}

// ID implements sim.Process.
func (p *Protocol) ID() sim.ProcID { return p.id }

// Violated reports whether the "cannot happen" branch (line 9) was reached —
// no execution of the faithful algorithm may set this.
func (p *Protocol) Violated() bool { return p.violated }

// Send implements the send phase of round r (lines 4–5). The coordinator
// fills the system's plan buffer and payload slot; the control sequence is a
// view of an immutable table, so a Send allocates nothing.
func (p *Protocol) Send(r sim.Round) sim.SendPlan {
	if sim.Round(p.id) != r {
		return sim.SendPlan{} // only the coordinator of r sends
	}
	sys := p.sys
	var plan sim.SendPlan
	sys.est = sim.Est{V: p.est, B: sys.opts.bits()}
	data := sys.data[:0]
	for j := int(p.id) + 1; j <= sys.n; j++ {
		data = append(data, sim.Outgoing{To: sim.ProcID(j), Payload: &sys.est})
	}
	dests := commitDests(p.id, sys.n, sys.opts.Order)
	if sys.opts.CommitAsData {
		for _, to := range dests {
			data = append(data, sim.Outgoing{To: to, Payload: commitTag{}})
		}
	} else {
		plan.Control = dests
	}
	plan.Data = slices.Clip(data)
	return plan
}

// Control destination tables: descending holds [m, m-1, ..., 1] and
// ascending [1, ..., m] for the largest m any system has asked for. A table
// is never written after it is published, so every coordinator of every
// system — on any goroutine — reads its control sequence as a subslice.
var descending, ascending atomic.Pointer[[]sim.ProcID]

// commitDests returns the ordered control destination sequence of line 5 for
// coordinator p_id of an n-process system: p_n, ..., p_{id+1} in the
// faithful order, p_{id+1}, ..., p_n under OrderAscending. The result is a
// capped view of an immutable table; nil when p_id is the last process.
func commitDests(id sim.ProcID, n int, order CommitOrder) []sim.ProcID {
	i := int(id)
	if i >= n {
		return nil
	}
	if order == OrderAscending {
		return destTable(&ascending, n, false)[i:n:n]
	}
	tab := destTable(&descending, n, true)
	m := len(tab)
	return tab[m-n : m-i : m-i]
}

// destTable returns the published table of at least n ids, growing it if it
// is shorter. Growth builds a new table and publishes it with a
// compare-and-swap, so a concurrent reader sees either table, never a
// partial one, and a larger table is never replaced by a smaller one.
func destTable(tab *atomic.Pointer[[]sim.ProcID], n int, desc bool) []sim.ProcID {
	for {
		cur := tab.Load()
		if cur != nil && len(*cur) >= n {
			return *cur
		}
		m := max(n, 64)
		if cur != nil {
			m = max(m, 2*len(*cur))
		}
		next := make([]sim.ProcID, m)
		for k := range next {
			next[k] = sim.ProcID(k + 1)
			if desc {
				next[k] = sim.ProcID(m - k)
			}
		}
		if tab.CompareAndSwap(cur, &next) {
			return next
		}
	}
}

// Receive implements the receive and computation phases of round r
// (lines 6–9). The engine only calls it if the process survived the round's
// send phase, so reaching it as the coordinator means lines 4–5 completed
// and line 6 (decide) executes.
func (p *Protocol) Receive(r sim.Round, inbox []sim.Message) {
	switch {
	case sim.Round(p.id) == r:
		p.decide(p.est) // line 6
	case sim.Round(p.id) > r:
		coord := sim.ProcID(r)
		commit := false
		for _, m := range inbox {
			if m.From != coord {
				continue
			}
			switch pay := m.Payload.(type) {
			case *sim.Est:
				p.est = pay.V // line 7
			case commitTag:
				commit = true
			default:
				if m.Kind == sim.Control {
					commit = true
				}
			}
		}
		if commit {
			p.decide(p.est) // line 8
		}
	default:
		p.violated = true // line 9: cannot happen
	}
}

// decide records the decision and halts the process (the "return" of
// Figure 1).
func (p *Protocol) decide(v sim.Value) {
	p.decided = true
	p.decision = v
	p.halted = true
}

// Decided implements sim.Process.
func (p *Protocol) Decided() (sim.Value, bool) { return p.decision, p.decided }

// Halted implements sim.Process.
func (p *Protocol) Halted() bool { return p.halted }

// String renders the process state for traces.
func (p *Protocol) String() string {
	state := "running"
	if p.decided {
		state = fmt.Sprintf("decided(%d)", int64(p.decision))
	}
	return fmt.Sprintf("crw p%d/%d est=%d %s", p.id, p.sys.n, int64(p.est), state)
}

// WorstCaseDataMessages returns the paper's Theorem 2 upper bound on the
// number of data messages: the first t+1 coordinators each send all their
// data messages, i.e. sum_{i=1..t+1} (n-i) = (t+1)n - (t+1)(t+2)/2.
func WorstCaseDataMessages(n, t int) int {
	k := t + 1
	if k > n {
		k = n
	}
	return k*n - k*(k+1)/2
}

// WorstCaseCommitMessages returns the paper's Theorem 2 upper bound on the
// number of commit messages under the same scenario (every coordinator's
// full control sequence escapes).
func WorstCaseCommitMessages(n, t int) int {
	return WorstCaseDataMessages(n, t)
}

// BestCaseBits returns Theorem 2's best-case bit complexity: a single round
// coordinated by p_1, which sends one b-bit data message and one 1-bit commit
// to each of the n-1 other processes: (n-1)(b+1).
func BestCaseBits(n, b int) int { return (n - 1) * (b + 1) }

// WorstCaseBits returns Theorem 2's worst-case bit complexity upper bound:
// data messages cost b bits and commits one bit each.
func WorstCaseBits(n, t, b int) int {
	return WorstCaseDataMessages(n, t)*b + WorstCaseCommitMessages(n, t)
}
