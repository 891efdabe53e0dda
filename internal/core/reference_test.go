package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// refSend is the coordinator's send phase as it was before the system-owned
// plan buffer, payload slot and control tables: every Send boxes its own
// payload and allocates its own Data and Control slices. It stays here as
// the reference NewSystem's plans must match.
func refSend(id sim.ProcID, n int, est sim.Value, opts Options) sim.SendPlan {
	var plan sim.SendPlan
	var payload sim.Payload = &sim.Est{V: est, B: opts.bits()}
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
// is returned — before the next coordinator refills the shared buffer and
// payload slot. Each round's DATA reaches every other later process, as if
// the coordinator crashed between its two sending steps, so estimates
// diverge and each coordinator rewrites the slot with its own value. Both
// orders, with and without CommitAsData, at sizes up past the tables' first
// growth.
func TestSendMatchesReference(t *testing.T) {
	if size := unsafe.Sizeof(Protocol{}); size > 64 {
		t.Errorf("Protocol is %d bytes, want <= 64", size)
	}
	// The payload slot rides in the shared system, not in each Protocol:
	// per-process slots would add 16 bytes per process to every system.
	if size := unsafe.Sizeof(system{}); size > 64 {
		t.Errorf("system is %d bytes, want <= 64", size)
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
						if sim.Round(p.id) == r {
							deliverAlternateData(procs, r, plan)
						}
					}
				}
			}
		}
	}
}

// deliverAlternateData hands the round-r coordinator's estimate to every
// other later process and nothing else — no COMMIT, so nobody decides.
func deliverAlternateData(procs []sim.Process, r sim.Round, plan sim.SendPlan) {
	for _, o := range plan.Data {
		if _, ok := o.Payload.(*sim.Est); ok && int(o.To)%2 == int(r)%2 {
			m := sim.Message{From: sim.ProcID(r), To: o.To, Round: r, Kind: sim.Data, Payload: o.Payload}
			procs[o.To-1].Receive(r, []sim.Message{m})
		}
	}
}

// plansEqual compares two plans by destination, payload contents and control
// sequence; nil and empty slices are equal. Payloads are compared by what
// they point at: the system's slot and the reference's box are different
// pointers.
func plansEqual(a, b sim.SendPlan) bool {
	return slices.EqualFunc(a.Data, b.Data, func(x, y sim.Outgoing) bool {
		return x.To == y.To && reflect.DeepEqual(x.Payload, y.Payload)
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
