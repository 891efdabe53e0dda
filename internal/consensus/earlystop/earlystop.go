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
// It costs b+1 bits.
type EstMsg struct {
	Est   sim.Value
	Early bool
	B     int
}

// Bits returns b+1: the estimate plus the flag bit.
func (m EstMsg) Bits() int { return m.B + 1 }

// String renders the payload for traces.
func (m EstMsg) String() string { return fmt.Sprintf("est(%d,early=%t)", int64(m.Est), m.Early) }

// Protocol is one early-stopping process. It implements sim.Process and runs
// under sim.ModelClassic.
type Protocol struct {
	id sim.ProcID
	n  int
	t  int
	b  int

	est   sim.Value
	early bool

	decided  bool
	decision sim.Value
	halted   bool

	data []sim.Outgoing // empty, capacity n-1: the plan backing array every Send refills
}

// New returns process p_id out of n tolerating t crashes, proposing v with
// bit width b (<=0 defaults to 64).
func New(id sim.ProcID, n, t int, proposal sim.Value, b int) *Protocol {
	p := newProtocol(id, n, t, proposal, b)
	return &p
}

func newProtocol(id sim.ProcID, n, t int, proposal sim.Value, b int) Protocol {
	if b <= 0 {
		b = 64
	}
	return Protocol{id: id, n: n, t: t, b: b, est: proposal}
}

// NewSystem builds the n processes of one instance; proposals[i] belongs to
// p_{i+1}. The processes live in one slab: a system costs one allocation,
// not one per process.
func NewSystem(proposals []sim.Value, t, b int) []sim.Process {
	slab := make([]Protocol, len(proposals))
	procs := make([]sim.Process, len(proposals))
	for i, v := range proposals {
		slab[i] = newProtocol(sim.ProcID(i+1), len(proposals), t, v, b)
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
	// Boxed once: every message of the plan shares the immutable payload.
	var payload sim.Payload = EstMsg{Est: p.est, Early: p.early, B: p.b}
	if p.data == nil {
		p.data = make([]sim.Outgoing, 0, p.n-1)
	}
	data := p.data // empty, full capacity: the appends below never reallocate
	for j := 1; j <= p.n; j++ {
		if sim.ProcID(j) == p.id {
			continue
		}
		data = append(data, sim.Outgoing{To: sim.ProcID(j), Payload: payload})
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
		msg, ok := m.Payload.(EstMsg)
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
