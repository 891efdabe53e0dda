package snapshot_test

import (
	"fmt"

	"repro/internal/snapshot"
)

// A token bank takes a snapshot mid-flight: the nodes never stop passing
// tokens while node 1's markers travel, yet the recorded balances plus the
// tokens captured inside channels equal the initial total. The marker sent
// after a node's regular messages separates pre- and post-snapshot traffic
// on each FIFO channel — the role the paper's COMMIT plays in its send phase.
func ExampleRun() {
	const n, balance, hops = 6, 1200, 8
	apps, total := bankApps(n, balance, hops)
	col, sent := snapshot.Run(apps, 1)

	fmt.Printf("token bank: %d nodes × %d tokens = %d total; %d messages exchanged\n",
		n, balance, total, sent)
	fmt.Println("recorded node states:")
	for i := 1; i <= n; i++ {
		fmt.Printf("  node %d: %4d tokens\n", i, col.States[snapshot.NodeID(i)])
	}
	inFlight := snapshot.TotalInChannels(col.Channels)
	fmt.Printf("recorded channel states: %d tokens in flight\n", inFlight)
	for _, cs := range col.Channels {
		fmt.Printf("  %d -> %d: %d message(s)\n", cs.From, cs.To, len(cs.Payloads))
	}
	recorded := snapshot.TotalBalances(col.States)
	fmt.Printf("conservation: %d (balances) + %d (in flight) = %d, initial total %d\n",
		recorded, inFlight, recorded+inFlight, total)
	// Output:
	// token bank: 6 nodes × 1200 tokens = 7200 total; 240 messages exchanged
	// recorded node states:
	//   node 1:  700 tokens
	//   node 2:  950 tokens
	//   node 3:  900 tokens
	//   node 4:  850 tokens
	//   node 5:  850 tokens
	//   node 6:  850 tokens
	// recorded channel states: 2100 tokens in flight
	//   1 -> 3: 1 message(s)
	//   1 -> 4: 1 message(s)
	//   2 -> 1: 1 message(s)
	//   2 -> 3: 5 message(s)
	//   2 -> 5: 1 message(s)
	//   3 -> 1: 1 message(s)
	//   3 -> 4: 5 message(s)
	//   3 -> 5: 1 message(s)
	//   3 -> 6: 1 message(s)
	//   4 -> 1: 1 message(s)
	//   4 -> 5: 3 message(s)
	//   5 -> 1: 1 message(s)
	//   5 -> 6: 4 message(s)
	//   6 -> 1: 4 message(s)
	// conservation: 5100 (balances) + 2100 (in flight) = 7200, initial total 7200
}
