package floodset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// mapFloodset is the FloodSet state machine as it was before the known set
// became a sorted slab: a map for membership and a scan for the minimum. It
// stays here as the reference the slab implementation must match step for
// step.
type mapFloodset struct {
	t        int
	known    map[sim.Value]bool
	fresh    []sim.Value
	decided  bool
	decision sim.Value
}

func newMapFloodset(t int, proposal sim.Value) *mapFloodset {
	return &mapFloodset{t: t, known: map[sim.Value]bool{proposal: true}, fresh: []sim.Value{proposal}}
}

// sendValues is the payload of the round-r plan, nil when nothing is sent.
func (p *mapFloodset) sendValues(r sim.Round) []sim.Value {
	if int(r) > p.t+1 || len(p.fresh) == 0 {
		return nil
	}
	vals := slices.Clone(p.fresh)
	slices.Sort(vals)
	return vals
}

func (p *mapFloodset) receive(r sim.Round, inbox []sim.Message) {
	p.fresh = p.fresh[:0]
	for _, m := range inbox {
		set, ok := m.Payload.(*ValueSet)
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
	if int(r) == p.t+1 {
		first := true
		for v := range p.known {
			if first || v < p.decision {
				p.decision = v
				first = false
			}
		}
		p.decided = true
	}
}

// randomInbox builds an inbox for process id: value sets from random senders
// (unsorted, with duplicates, and with values from outside the proposals so
// the known set can outgrow its slab share) plus payloads FloodSet ignores.
func randomInbox(rng *rand.Rand, id sim.ProcID, n int, r sim.Round) []sim.Message {
	var inbox []sim.Message
	for k := rng.Intn(2 * n); k > 0; k-- {
		from := sim.ProcID(1 + rng.Intn(n))
		if from == id {
			continue
		}
		m := sim.Message{From: from, To: id, Round: r, Kind: sim.Data}
		if rng.Intn(5) == 0 {
			m.Payload = &sim.Est{V: sim.Value(rng.Intn(3 * n)), B: 8}
		} else {
			vals := make([]sim.Value, rng.Intn(4))
			for i := range vals {
				vals[i] = sim.Value(rng.Intn(3 * n))
			}
			m.Payload = &ValueSet{Values: vals, B: 8}
		}
		inbox = append(inbox, m)
	}
	sim.SortInbox(inbox)
	return inbox
}

// TestPropertySortedSlabMatchesMapReference drives every process of a
// NewSystem instance and a map-based reference through the same random inbox
// sequence: fresh lists, send plans and decisions must be identical each
// round, and no process may disturb a neighbour's share of the value slab.
func TestPropertySortedSlabMatchesMapReference(t *testing.T) {
	prop := func(seed int64, nRaw, tRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%9)
		tt := int(tRaw) % n
		proposals := make([]sim.Value, n)
		for i := range proposals {
			proposals[i] = sim.Value(rng.Intn(2 * n))
		}
		procs := NewSystem(proposals, tt, 8)
		refs := make([]*mapFloodset, n)
		for i, v := range proposals {
			refs[i] = newMapFloodset(tt, v)
		}
		for r := sim.Round(1); int(r) <= tt+2; r++ {
			for i, sp := range procs {
				p, ref := sp.(*Protocol), refs[i]
				plan := p.Send(r)
				want := ref.sendValues(r)
				if want == nil {
					if !plan.IsEmpty() {
						t.Logf("seed %d p%d r%d: sent %v, reference sends nothing", seed, i+1, r, plan.Data)
						return false
					}
				} else {
					if len(plan.Data) != n-1 || len(plan.Control) != 0 {
						t.Logf("seed %d p%d r%d: plan %+v, want %d data messages", seed, i+1, r, plan, n-1)
						return false
					}
					for _, o := range plan.Data {
						if got := o.Payload.(*ValueSet).Values; !slices.Equal(got, want) {
							t.Logf("seed %d p%d r%d: sends %v, reference %v", seed, i+1, r, got, want)
							return false
						}
					}
				}
				if int(r) > tt+1 {
					continue
				}
				inbox := randomInbox(rng, p.id, n, r)
				p.Receive(r, inbox)
				ref.receive(r, inbox)
				if !slices.Equal(p.fresh, ref.fresh) {
					t.Logf("seed %d p%d r%d: fresh %v, reference %v", seed, i+1, r, p.fresh, ref.fresh)
					return false
				}
				v, ok := p.Decided()
				if ok != ref.decided || v != ref.decision || p.Halted() != ref.decided {
					t.Logf("seed %d p%d r%d: decided %d,%t, reference %d,%t", seed, i+1, r, v, ok, ref.decision, ref.decided)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestReceiveAllocatesNothing pins the receive path at zero allocations once
// NewSystem has carved the value slab: learning every other proposal and
// deciding stays inside the process's share.
func TestReceiveAllocatesNothing(t *testing.T) {
	const n, tt = 16, 0
	proposals := make([]sim.Value, n)
	for i := range proposals {
		proposals[i] = sim.Value(100 + n - i) // descending: every insert shifts
	}
	var inbox []sim.Message
	for j := 2; j <= n; j++ {
		inbox = append(inbox, sim.Message{From: sim.ProcID(j), To: 1, Round: 1, Kind: sim.Data,
			Payload: &ValueSet{Values: []sim.Value{proposals[j-1]}, B: 8}})
	}
	const runs = 50
	systems := make([][]sim.Process, runs+1) // AllocsPerRun makes one warm-up call
	for i := range systems {
		systems[i] = NewSystem(proposals, tt, 8)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		p := systems[next][0]
		next++
		p.Receive(1, inbox)
		if v, ok := p.Decided(); !ok || v != 101 {
			t.Fatalf("decided %d,%t, want 101,true", v, ok)
		}
	})
	if allocs != 0 {
		t.Errorf("Receive allocates %.1f allocs/call after NewSystem, want 0", allocs)
	}
}
