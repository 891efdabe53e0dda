// Package floodset implements the classic FloodSet consensus algorithm for
// the traditional round-based synchronous model (Lynch, "Distributed
// Algorithms", §6.2), one of the two classic baselines the paper compares
// its extended-model algorithm against.
//
// Every process floods the values it learns: in round 1 it broadcasts its own
// proposal; in each later round it broadcasts the values it learned in the
// previous round. After t+1 rounds every pair of processes that reached the
// end of the execution holds the same set of values W (there must have been a
// clean round among the t+1), so deciding min(W) yields uniform agreement.
//
// The algorithm always runs for exactly t+1 rounds regardless of the actual
// number of crashes f — this is the "no early stopping" baseline for
// experiment E4.
package floodset

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// ValueSet is the payload: the set of newly learned values, sorted. Its cost
// is b bits per value, following the bit accounting of the paper.
type ValueSet struct {
	Values []sim.Value
	B      int // bit width of one value
}

// Bits returns the payload size: one b-bit slot per value.
func (s ValueSet) Bits() int { return len(s.Values) * s.B }

// String renders the set for traces.
func (s ValueSet) String() string { return fmt.Sprintf("set%v", s.Values) }

// Protocol is one FloodSet process. It implements sim.Process and runs under
// sim.ModelClassic (it never emits control messages).
type Protocol struct {
	id sim.ProcID
	n  int
	t  int
	b  int

	known map[sim.Value]bool
	fresh []sim.Value // values learned in the previous round, to flood next

	decided  bool
	decision sim.Value
	halted   bool

	data []sim.Outgoing // empty, capacity n-1: the plan backing array every Send refills
}

// New returns the process p_id out of n tolerating t crashes, proposing v
// with bit width b (<=0 defaults to 64).
func New(id sim.ProcID, n, t int, proposal sim.Value, b int) *Protocol {
	p := newProtocol(id, n, t, proposal, b)
	return &p
}

func newProtocol(id sim.ProcID, n, t int, proposal sim.Value, b int) Protocol {
	if b <= 0 {
		b = 64
	}
	return Protocol{
		id:    id,
		n:     n,
		t:     t,
		b:     b,
		known: map[sim.Value]bool{proposal: true},
		fresh: []sim.Value{proposal},
	}
}

// NewSystem builds the n processes of one instance; proposals[i] belongs to
// p_{i+1}. The processes live in one slab (each still owns its known set and
// fresh list).
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

// Rounds returns the fixed round count of the algorithm, t+1.
func (p *Protocol) Rounds() sim.Round { return sim.Round(p.t + 1) }

// Send floods the values learned in the previous round to every other
// process (rounds 1..t+1).
func (p *Protocol) Send(r sim.Round) sim.SendPlan {
	if r > p.Rounds() || len(p.fresh) == 0 {
		return sim.SendPlan{}
	}
	// The sorted copy is fresh per Send because delivered messages alias it;
	// it is boxed once and shared by every message of the plan.
	vals := slices.Clone(p.fresh)
	slices.Sort(vals)
	var payload sim.Payload = ValueSet{Values: vals, B: p.b}
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

// Receive accumulates flooded values; at the end of round t+1 it decides the
// minimum of its set.
func (p *Protocol) Receive(r sim.Round, inbox []sim.Message) {
	p.fresh = p.fresh[:0]
	for _, m := range inbox {
		set, ok := m.Payload.(ValueSet)
		if !ok {
			continue
		}
		for _, v := range set.Values {
			if !p.known[v] {
				p.known[v] = true
				p.fresh = append(p.fresh, v)
			}
		}
	}
	if r == p.Rounds() {
		p.decide(p.min())
	}
}

// min returns the smallest known value.
func (p *Protocol) min() sim.Value {
	first := true
	var m sim.Value
	for v := range p.known {
		if first || v < m {
			m = v
			first = false
		}
	}
	return m
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
