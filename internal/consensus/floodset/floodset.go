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
// is b bits per value, following the bit accounting of the paper. It is sent
// by pointer (*ValueSet implements sim.Payload): each process rewrites its
// own slot every round.
type ValueSet struct {
	Values []sim.Value
	B      int // bit width of one value
}

// Bits returns the payload size: one b-bit slot per value.
func (s *ValueSet) Bits() int { return len(s.Values) * s.B }

// String renders the set for traces.
func (s *ValueSet) String() string { return fmt.Sprintf("set%v", s.Values) }

// Protocol is one FloodSet process. It implements sim.Process and runs under
// sim.ModelClassic (it never emits control messages).
type Protocol struct {
	id sim.ProcID
	n  int
	t  int

	known []sim.Value // every value learned so far, sorted ascending
	// fresh holds the values learned in the previous round, to flood next. It
	// is a window over an append-only log: Send sorts the window in place and
	// sends it, Receive starts the next window past it, so a window is never
	// rewritten once delivered messages alias it.
	fresh []sim.Value

	decided  bool
	halted   bool
	decision sim.Value

	data []sim.Outgoing // empty, capacity n-1: the plan backing array every Send refills
	set  ValueSet       // the payload slot every Send rewrites; set.B is the bit width b
}

// New returns the process p_id out of n tolerating t crashes, proposing v
// with bit width b (<=0 defaults to 64).
func New(id sim.ProcID, n, t int, proposal sim.Value, b int) *Protocol {
	p := newProtocol(id, n, t, proposal, b, make([]sim.Value, 2*n), make([]sim.Outgoing, 0, n-1))
	return &p
}

// newProtocol builds one process whose known set and fresh log are carved
// out of vals, 2n values: an instance floods at most n distinct proposals,
// so neither list outgrows its half and Receive never allocates. A list that
// does (values injected from outside the instance) reallocates privately.
// data is the plan backing array (empty, capacity n-1).
func newProtocol(id sim.ProcID, n, t int, proposal sim.Value, b int, vals []sim.Value, data []sim.Outgoing) Protocol {
	if b <= 0 {
		b = 64
	}
	vals[0], vals[n] = proposal, proposal
	return Protocol{
		id:    id,
		n:     n,
		t:     t,
		known: vals[0:1:n],
		fresh: vals[n : n+1 : 2*n],
		data:  data,
		set:   ValueSet{B: b},
	}
}

// NewSystem builds the n processes of one instance; proposals[i] belongs to
// p_{i+1}. The processes live in one slab, their value lists in another of
// 2n² values and their plan backing arrays in a third of n(n-1) messages.
func NewSystem(proposals []sim.Value, t, b int) []sim.Process {
	n := len(proposals)
	slab := make([]Protocol, n)
	vals := make([]sim.Value, 2*n*n)
	data := make([]sim.Outgoing, n*(n-1))
	procs := make([]sim.Process, n)
	for i, v := range proposals {
		d := data[(n-1)*i : (n-1)*i : (n-1)*(i+1)]
		slab[i] = newProtocol(sim.ProcID(i+1), n, t, v, b, vals[2*n*i:2*n*(i+1)], d)
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
	// The window is sorted in place and sent as is: Receive never rewrites
	// it, only starts the next window past it.
	slices.Sort(p.fresh)
	p.set.Values = slices.Clip(p.fresh)
	data := p.data // empty, full capacity: the appends below never reallocate
	for j := 1; j <= p.n; j++ {
		if sim.ProcID(j) == p.id {
			continue
		}
		data = append(data, sim.Outgoing{To: sim.ProcID(j), Payload: &p.set})
	}
	return sim.SendPlan{Data: data}
}

// Receive accumulates flooded values; at the end of round t+1 it decides the
// minimum of its set.
func (p *Protocol) Receive(r sim.Round, inbox []sim.Message) {
	p.fresh = p.fresh[len(p.fresh):] // the next window starts past the sent one
	for _, m := range inbox {
		set, ok := m.Payload.(*ValueSet)
		if !ok {
			continue
		}
		for _, v := range set.Values {
			if i, found := slices.BinarySearch(p.known, v); !found {
				p.known = slices.Insert(p.known, i, v)
				p.fresh = append(p.fresh, v)
			}
		}
	}
	if r == p.Rounds() {
		p.decide(p.known[0]) // the smallest known value
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
