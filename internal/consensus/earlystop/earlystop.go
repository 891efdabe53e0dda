// Package earlystop implements the classic early-stopping uniform consensus
// algorithm for the traditional synchronous model, deciding in
// min(f+2, t+1) rounds where f is the actual number of crashes — the round
// complexity the paper's introduction cites as the classic-model lower bound
// [7, 8, 13] and the main baseline the extended model's f+1 bound is
// measured against (experiments E3 and E4).
//
// The algorithm (Raynal, "Consensus in Synchronous Systems: a Concise Guided
// Tour", PRDC 2002 — reference [16] of the paper): every process floods its
// current estimate together with an "early" flag. A process sets the flag at
// the end of round r when it heard from more than n-r processes (it has
// then witnessed fewer than r crashes, so one of rounds 1..r was clean from
// its point of view and its estimate can no longer be beaten), or when it
// receives a flagged message. A flagged process broadcasts once more and
// decides. Everyone decides at the end of round t+1 at the latest.
package earlystop

import (
	"fmt"

	"repro/internal/sim"
)

// EstMsg is the payload: the sender's estimate and its early-decision flag.
// It costs b+1 bits. It is sent by pointer (*EstMsg implements sim.Payload):
// each process rewrites its own slot every round.
type EstMsg struct {
	Est   sim.Value
	Early bool
	B     int
}

// Bits returns b+1: the estimate plus the flag bit.
func (m *EstMsg) Bits() int { return m.B + 1 }

// String renders the payload for traces.
func (m *EstMsg) String() string { return fmt.Sprintf("est(%d,early=%t)", int64(m.Est), m.Early) }

// Protocol is one early-stopping process. It implements sim.Process and runs
// under sim.ModelClassic.
type Protocol struct {
	id sim.ProcID
	n  int
	t  int

	est   sim.Value
	early bool

	decided  bool
	halted   bool
	decision sim.Value

	data []sim.Outgoing // empty, capacity n-1: the plan backing array every Send refills
	msg  EstMsg         // the payload slot every Send rewrites; msg.B is the bit width b
}

// New returns process p_id out of n tolerating t crashes, proposing v with
// bit width b (<=0 defaults to 64).
func New(id sim.ProcID, n, t int, proposal sim.Value, b int) *Protocol {
	p := newProtocol(id, n, t, proposal, b, make([]sim.Outgoing, 0, n-1))
	return &p
}

// newProtocol builds one process whose plan backing array is data (empty,
// capacity n-1).
func newProtocol(id sim.ProcID, n, t int, proposal sim.Value, b int, data []sim.Outgoing) Protocol {
	if b <= 0 {
		b = 64
	}
	return Protocol{id: id, n: n, t: t, est: proposal, data: data, msg: EstMsg{B: b}}
}

// System holds the storage of one instance for reuse: Reset builds an
// instance in it, overwriting the one the previous Reset built. The zero
// value is ready to use.
type System struct {
	slab  []Protocol
	data  []sim.Outgoing
	procs []sim.Process
}

// NewSystem builds the n processes of one instance; proposals[i] belongs to
// p_{i+1}. The processes live in one slab and their plan backing arrays in
// another of n(n-1) messages: a system costs a constant number of
// allocations, not one per process.
func NewSystem(proposals []sim.Value, t, b int) []sim.Process {
	var s System
	return s.Reset(proposals, t, b)
}

// Reset builds the n = len(proposals) processes of a fresh instance, as
// NewSystem does, in the storage of s: the process slab, the plan slab and
// the []sim.Process are refilled in place, and grown only when n exceeds
// what s has held. The processes a previous Reset returned become the new
// instance's, so that instance must be finished with.
func (s *System) Reset(proposals []sim.Value, t, b int) []sim.Process {
	n := len(proposals)
	if cap(s.slab) < n {
		s.slab = make([]Protocol, n)
		s.procs = make([]sim.Process, n)
	}
	if cap(s.data) < n*(n-1) {
		s.data = make([]sim.Outgoing, n*(n-1))
	}
	slab, procs, data := s.slab[:n], s.procs[:n], s.data
	for i, v := range proposals {
		d := data[(n-1)*i : (n-1)*i : (n-1)*(i+1)]
		slab[i] = newProtocol(sim.ProcID(i+1), n, t, v, b, d)
		procs[i] = &slab[i]
	}
	return procs
}

// ID implements sim.Process.
func (p *Protocol) ID() sim.ProcID { return p.id }

// MaxRounds returns the worst-case round count t+1.
func (p *Protocol) MaxRounds() sim.Round { return sim.Round(p.t + 1) }

// Send broadcasts the current estimate and early flag to every other process.
func (p *Protocol) Send(r sim.Round) sim.SendPlan {
	if r > p.MaxRounds() {
		return sim.SendPlan{}
	}
	p.msg.Est, p.msg.Early = p.est, p.early
	data := p.data // empty, full capacity: the appends below never reallocate
	for j := 1; j <= p.n; j++ {
		if sim.ProcID(j) == p.id {
			continue
		}
		data = append(data, sim.Outgoing{To: sim.ProcID(j), Payload: &p.msg})
	}
	return sim.SendPlan{Data: data}
}

// Receive runs the computation phase of round r: if the early flag was set
// at the end of a previous round, the process has just re-broadcast it and
// decides now. Otherwise it lowers its estimate to the minimum heard, and
// sets the early flag if it witnessed fewer than r crashes or saw a flagged
// message.
func (p *Protocol) Receive(r sim.Round, inbox []sim.Message) {
	if p.early {
		// The flag was set at the end of round r-1; the flagged estimate was
		// broadcast during this round's send phase, so deciding is safe.
		p.decide(p.est)
		return
	}
	heard := 1 // itself
	sawEarly := false
	for _, m := range inbox {
		msg, ok := m.Payload.(*EstMsg)
		if !ok {
			continue
		}
		heard++
		if msg.Est < p.est {
			p.est = msg.Est
		}
		if msg.Early {
			sawEarly = true
		}
	}
	if sawEarly || p.n-heard < int(r) {
		p.early = true
	}
	if r >= p.MaxRounds() {
		p.decide(p.est)
	}
}

func (p *Protocol) decide(v sim.Value) {
	p.decided = true
	p.decision = v
	p.halted = true
}

// Decided implements sim.Process.
func (p *Protocol) Decided() (sim.Value, bool) { return p.decision, p.decided }

// Halted implements sim.Process.
func (p *Protocol) Halted() bool { return p.halted }

// RoundBound returns the classic-model decision bound min(f+2, t+1) for f
// actual crashes and resilience t.
func RoundBound(f, t int) sim.Round {
	b := f + 2
	if t+1 < b {
		b = t + 1
	}
	return sim.Round(b)
}
