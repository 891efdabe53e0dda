package mr99_test

import (
	"fmt"
	"maps"
	"slices"

	"repro/agree"
	"repro/internal/consensus/mr99"
	"repro/internal/sim"
)

// Section 4 of the paper: the synchronous CRW algorithm and the asynchronous
// ◇S-based MR99 algorithm are "two implementations in different settings of
// the very same basic principle". Both run on the same proposals: the
// coordinator's data broadcast is common to both, and the paper's pipelined
// COMMIT replaces MR99's entire n(n-1)-message second step.
func ExampleRun() {
	const n = 8
	proposals := make([]sim.Value, n)
	raw := make([]int64, n)
	for i := range proposals {
		proposals[i] = sim.Value(100 + i)
		raw[i] = int64(100 + i)
	}
	maxRound := func(r *mr99.Result) int { return slices.Max(slices.Collect(maps.Values(r.DecideRound))) }

	// Synchronous side: the paper's algorithm in the extended model.
	crw, err := agree.Run(agree.Config{N: n, Proposals: raw})
	if err != nil {
		panic(err)
	}
	// Asynchronous side: MR99 with an immediately accurate ◇S detector.
	mr, err := mr99.Run(mr99.Config{N: n, T: (n - 1) / 2}, proposals, &mr99.GSTOracle{GST: 1})
	if err != nil {
		panic(err)
	}

	fmt.Println("the bridge: one consensus principle, two timing models (n =", n, ")")
	fmt.Println()
	fmt.Println("                         CRW (extended sync)    MR99 (async + ◇S)")
	fmt.Printf("coordinator broadcast    %-22d %d\n", crw.Counters.DataMsgs, mr.Trace[0].Step1Msgs)
	fmt.Printf("\"value locked\" signal    %d (COMMIT, pipelined)  %d (all-to-all AUX step)\n",
		crw.Counters.CtrlMsgs, mr.Trace[0].Step2Msgs)
	fmt.Printf("total messages           %-22d %d\n",
		crw.Counters.TotalMsgs(), mr.Trace[0].Step1Msgs+mr.Trace[0].Step2Msgs)
	fmt.Printf("rounds to decide         %-22d %d\n", crw.MaxDecideRound(), maxRound(mr))
	fmt.Printf("decided value            %-22d %d\n", crw.Decisions[1], int64(mr.Decisions[1]))
	fmt.Println()
	fmt.Println("Reading: in both algorithms the round coordinator broadcasts its estimate")
	fmt.Println("and the processes need evidence the value is locked before deciding. The")
	fmt.Println("extended model's synchrony lets a single pipelined one-bit COMMIT carry")
	fmt.Println("that evidence; asynchrony forces MR99 to reconstruct it with a quorum of")
	fmt.Println("n-t AUX messages from a full second communication step.")

	// The fault case: crash the first coordinator in both worlds.
	crwF, err := agree.Run(agree.Config{N: n, Proposals: raw, Faults: agree.CoordinatorCrashes(1)})
	if err != nil {
		panic(err)
	}
	mrF, err := mr99.Run(mr99.Config{N: n, T: (n - 1) / 2}, proposals,
		&mr99.GSTOracle{GST: 1, Crashes: map[sim.ProcID]int{1: 1}})
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Printf("with p1 crashed: CRW decides in round %d (f+1), MR99 in round %d —\n",
		crwF.MaxDecideRound(), maxRound(mrF))
	fmt.Println("the rotating coordinator recovers in one extra round in both settings.")
	// Output:
	// the bridge: one consensus principle, two timing models (n = 8 )
	//
	//                          CRW (extended sync)    MR99 (async + ◇S)
	// coordinator broadcast    7                      7
	// "value locked" signal    7 (COMMIT, pipelined)  56 (all-to-all AUX step)
	// total messages           14                     63
	// rounds to decide         1                      1
	// decided value            100                    100
	//
	// Reading: in both algorithms the round coordinator broadcasts its estimate
	// and the processes need evidence the value is locked before deciding. The
	// extended model's synchrony lets a single pipelined one-bit COMMIT carry
	// that evidence; asynchrony forces MR99 to reconstruct it with a quorum of
	// n-t AUX messages from a full second communication step.
	//
	// with p1 crashed: CRW decides in round 2 (f+1), MR99 in round 2 —
	// the rotating coordinator recovers in one extra round in both settings.
}
