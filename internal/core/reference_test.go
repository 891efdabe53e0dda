package core

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// refSend is the coordinator's send phase as it was before the system-owned
// plan buffer and the control tables: every Send allocates its own Data and
// Control slices. It stays here as the reference NewSystem's plans must
// match.
func refSend(id sim.ProcID, n int, est sim.Value, opts Options) sim.SendPlan {
	var plan sim.SendPlan
	var payload sim.Payload = sim.Est{V: est, B: opts.bits()}
	dataCap := n - int(id)
	if opts.CommitAsData {
		dataCap *= 2
	}
	plan.Data = make([]sim.Outgoing, 0, dataCap)
	for j := int(id) + 1; j <= n; j++ {
		plan.Data = append(plan.Data, sim.Outgoing{To: sim.ProcID(j), Payload: payload})
	}
	var dests []sim.ProcID
	if int(id) < n {
		dests = make([]sim.ProcID, 0, n-int(id))
		if opts.Order == OrderAscending {
			for j := int(id) + 1; j <= n; j++ {
				dests = append(dests, sim.ProcID(j))
			}
		} else {
			for j := n; j > int(id); j-- {
				dests = append(dests, sim.ProcID(j))
			}
		}
	}
	if opts.CommitAsData {
		for _, to := range dests {
			plan.Data = append(plan.Data, sim.Outgoing{To: to, Payload: commitTag{}})
		}
	} else {
		plan.Control = dests
	}
	return plan
}

// TestSendMatchesReference drives every process of a NewSystem instance
// through every round and compares each plan with the reference as soon as it
// is returned — before the next coordinator refills the shared buffer. Both
// orders, with and without CommitAsData, at sizes up past the tables' first
// growth.
func TestSendMatchesReference(t *testing.T) {
	if size := unsafe.Sizeof(Protocol{}); size > 64 {
		t.Errorf("Protocol is %d bytes, want <= 64", size)
	}
	for _, n := range []int{1, 2, 3, 8, 64, 130} {
		for _, order := range []CommitOrder{OrderDescending, OrderAscending} {
			for _, asData := range []bool{false, true} {
				opts := Options{Order: order, CommitAsData: asData, Bits: 16}
				props := make([]sim.Value, n)
				for i := range props {
					props[i] = sim.Value(100 + 3*i)
				}
				procs := NewSystem(props, opts)
				for r := sim.Round(1); int(r) <= n+1; r++ {
					for _, sp := range procs {
						p := sp.(*Protocol)
						plan := p.Send(r)
						var want sim.SendPlan
						if sim.Round(p.id) == r {
							want = refSend(p.id, n, p.est, opts)
						}
						if !plansEqual(plan, want) {
							t.Fatalf("n=%d %+v p%d r%d: plan %+v, reference %+v", n, opts, p.id, r, plan, want)
						}
						if cap(plan.Data) != len(plan.Data) || cap(plan.Control) != len(plan.Control) {
							t.Fatalf("n=%d %+v p%d r%d: plan slices not capped (data %d/%d, control %d/%d)",
								n, opts, p.id, r, len(plan.Data), cap(plan.Data), len(plan.Control), cap(plan.Control))
						}
					}
				}
			}
		}
	}
}

// plansEqual compares two plans by destination, payload and control
// sequence; nil and empty slices are equal.
func plansEqual(a, b sim.SendPlan) bool {
	return slices.EqualFunc(a.Data, b.Data, func(x, y sim.Outgoing) bool {
		return x.To == y.To && x.Payload == y.Payload
	}) && slices.Equal(a.Control, b.Control)
}

// TestControlTablesConcurrentGrowth has several goroutines grow and read the
// shared control tables at once, as the coordinators of systems on
// different workers do: every sequence must match the reference, whichever
// published table it came from.
func TestControlTablesConcurrentGrowth(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1 + g; n < 3000; n += 53 {
				for _, order := range []CommitOrder{OrderDescending, OrderAscending} {
					id := sim.ProcID(1 + n/3)
					want := refSend(id, n, 0, Options{Order: order}).Control
					if got := commitDests(id, n, order); !slices.Equal(got, want) {
						t.Errorf("n=%d p%d order %d: control %v, want %v", n, id, order, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
