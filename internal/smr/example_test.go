package smr_test

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/workload"
)

// The application the paper's introduction motivates: a replicated command
// log, each slot one uniform-consensus instance, committed over the paper's
// extended-model algorithm and over the classic early-stopping baseline,
// with and without replica crashes. A saturated closed loop launches slot s
// at time s-1 on the round engine, so a crash at time s-1 kills the replica
// for slot s onwards.
func ExampleServe() {
	const n, slots = 5, 40

	fmt.Printf("replicated log: %d replicas, %d slots\n\n", n, slots)
	fmt.Printf("%-16s %-22s %-7s %-13s %s\n",
		"protocol", "crash schedule", "rounds", "rounds/commit", "messages")

	scenarios := []struct {
		name    string
		crashes map[sim.ProcID]float64
	}{
		{"none", nil},
		{"p1 dies at slot 10", map[sim.ProcID]float64{1: 9}},
		{"p1@5, p2@15, p3@25", map[sim.ProcID]float64{1: 4, 2: 14, 3: 24}},
	}
	variants := []struct {
		label    string
		protocol smr.Protocol
		rotate   bool
	}{
		{"crw", smr.ProtocolCRW, false},
		{"crw+rotation", smr.ProtocolCRW, true},
		{"earlystop", smr.ProtocolEarlyStop, false},
	}
	for _, v := range variants {
		for _, sc := range scenarios {
			clients, err := workload.NewClosed(slots, 0, false, 0)
			if err != nil {
				panic(err)
			}
			res, err := smr.Serve(smr.ServeOptions{N: n, Protocol: v.protocol,
				RotateLeader: v.rotate, Engine: harness.KindDeterministic,
				Clients: clients, BatchLimit: 1, MaxSlots: slots, CrashAt: sc.crashes})
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-16s %-22s %-7d %-13.2f %d\n",
				v.label, sc.name, res.TotalRounds, float64(res.TotalRounds)/float64(res.Slots), res.Counters.TotalMsgs())
		}
		fmt.Println()
	}

	fmt.Println("Reading: over the extended model a healthy log commits one slot per")
	fmt.Println("synchronous round — the classic model needs two. After a leader dies the")
	fmt.Println("static p1-first rotation of Figure 1 wastes one round per slot; the")
	fmt.Println("leader-rotation variant (a pure id renaming, so Theorem 1 carries over)")
	fmt.Println("restores one-round commits immediately. Survivors' logs stay")
	fmt.Println("byte-identical through every crash: uniform agreement, slot after slot.")
	// Output:
	// replicated log: 5 replicas, 40 slots
	//
	// protocol         crash schedule         rounds  rounds/commit messages
	// crw              none                   40      1.00          320
	// crw              p1 dies at slot 10     71      1.77          258
	// crw              p1@5, p2@15, p3@25     118     2.95          164
	//
	// crw+rotation     none                   40      1.00          320
	// crw+rotation     p1 dies at slot 10     40      1.00          320
	// crw+rotation     p1@5, p2@15, p3@25     40      1.00          320
	//
	// earlystop        none                   80      2.00          1600
	// earlystop        p1 dies at slot 10     111     2.77          1848
	// earlystop        p1@5, p2@15, p3@25     158     3.95          1760
	//
	// Reading: over the extended model a healthy log commits one slot per
	// synchronous round — the classic model needs two. After a leader dies the
	// static p1-first rotation of Figure 1 wastes one round per slot; the
	// leader-rotation variant (a pure id renaming, so Theorem 1 carries over)
	// restores one-round commits immediately. Survivors' logs stay
	// byte-identical through every crash: uniform agreement, slot after slot.
}
