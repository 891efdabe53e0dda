package timing_test

import (
	"fmt"

	"repro/agree"
	"repro/internal/timing"
)

// The deployment question of Section 2.2: on a LAN with reliable channels,
// when does the extended model (round duration D+δ) beat the classic model
// (round duration D)? Measured executions of both optimal algorithms — the
// paper's f+1-round protocol and the classic min(f+2, t+1) early-stopping
// baseline — are priced across a sweep of δ/D ratios and fault counts. The
// rule of Section 2.2 (extended wins iff δ < D/(f+1)) emerges from the
// measurements.
func ExampleCost() {
	const n, t = 10, 8
	const d = 1.0 // one classic round = 1 time unit

	fmt.Println("LAN cluster sizing: extended vs classic synchronous consensus")
	fmt.Printf("n=%d processes, t=%d tolerated crashes, D=%.1f\n\n", n, t, d)
	fmt.Printf("%-4s %-6s %-10s %-10s %-9s %s\n",
		"f", "δ/D", "ext time", "cl time", "winner", "rule δ/D < 1/(f+1)")

	for _, f := range []int{0, 1, 2, 4} {
		for _, ratio := range []float64{0.02, 0.1, 0.25, 0.5, 1.0} {
			cost := timing.Cost{D: d, Delta: d * ratio}

			ext, err := agree.Run(agree.Config{N: n, Faults: agree.CoordinatorCrashes(f)})
			if err != nil {
				panic(err)
			}
			cl, err := agree.Run(agree.Config{N: n, T: t, Protocol: agree.ProtocolEarlyStop,
				Faults: agree.CoordinatorCrashes(f)})
			if err != nil {
				panic(err)
			}

			extTime := cost.ExtendedTime(ext.MaxDecideRound())
			clTime := cost.ClassicTime(cl.MaxDecideRound())
			winner := "classic"
			if extTime < clTime {
				winner = "extended"
			}
			fmt.Printf("%-4d %-6.2f %-10.2f %-10.2f %-9s %.3f < %.3f = %t\n",
				f, ratio, extTime, clTime, winner, ratio, timing.CrossoverDelta(1, f, t),
				ratio < timing.CrossoverDelta(1, f, t))
		}
		fmt.Println()
	}
	fmt.Println("Reading: with commodity-LAN overheads (δ/D ~ a few percent), the")
	fmt.Println("extended model wins for every realistic fault count — the paper's case")
	fmt.Println("for adding pipelined synchronization messages to reliable local networks.")
	// Output:
	// LAN cluster sizing: extended vs classic synchronous consensus
	// n=10 processes, t=8 tolerated crashes, D=1.0
	//
	// f    δ/D    ext time   cl time    winner    rule δ/D < 1/(f+1)
	// 0    0.02   1.02       2.00       extended  0.020 < 1.000 = true
	// 0    0.10   1.10       2.00       extended  0.100 < 1.000 = true
	// 0    0.25   1.25       2.00       extended  0.250 < 1.000 = true
	// 0    0.50   1.50       2.00       extended  0.500 < 1.000 = true
	// 0    1.00   2.00       2.00       classic   1.000 < 1.000 = false
	//
	// 1    0.02   2.04       3.00       extended  0.020 < 0.500 = true
	// 1    0.10   2.20       3.00       extended  0.100 < 0.500 = true
	// 1    0.25   2.50       3.00       extended  0.250 < 0.500 = true
	// 1    0.50   3.00       3.00       classic   0.500 < 0.500 = false
	// 1    1.00   4.00       3.00       classic   1.000 < 0.500 = false
	//
	// 2    0.02   3.06       4.00       extended  0.020 < 0.333 = true
	// 2    0.10   3.30       4.00       extended  0.100 < 0.333 = true
	// 2    0.25   3.75       4.00       extended  0.250 < 0.333 = true
	// 2    0.50   4.50       4.00       classic   0.500 < 0.333 = false
	// 2    1.00   6.00       4.00       classic   1.000 < 0.333 = false
	//
	// 4    0.02   5.10       6.00       extended  0.020 < 0.200 = true
	// 4    0.10   5.50       6.00       extended  0.100 < 0.200 = true
	// 4    0.25   6.25       6.00       classic   0.250 < 0.200 = false
	// 4    0.50   7.50       6.00       classic   0.500 < 0.200 = false
	// 4    1.00   10.00      6.00       classic   1.000 < 0.200 = false
	//
	// Reading: with commodity-LAN overheads (δ/D ~ a few percent), the
	// extended model wins for every realistic fault count — the paper's case
	// for adding pipelined synchronization messages to reliable local networks.
}
