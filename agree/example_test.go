package agree_test

import (
	"fmt"

	"repro/agree"
)

// The basic flow: run the paper's algorithm under the worst-case schedule
// for two crashes and observe the f+1 decision round.
func ExampleRun() {
	rep, err := agree.Run(agree.Config{
		N:      6,
		Faults: agree.CoordinatorCrashes(2),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("rounds:", rep.Rounds)
	fmt.Println("faults:", rep.Faults())
	fmt.Println("consensus:", rep.ConsensusErr == nil)
	// Output:
	// rounds: 3
	// faults: 2
	// consensus: true
}

// Comparing the three protocols on the same failure-free system shows the
// round-complexity ladder of the paper's introduction: f+1 = 1 (extended
// model) vs min(f+2, t+1) = 2 vs t+1 (classic model).
func ExampleRun_baselines() {
	for _, p := range []agree.Protocol{
		agree.ProtocolCRW, agree.ProtocolEarlyStop, agree.ProtocolFloodSet,
	} {
		rep, err := agree.Run(agree.Config{N: 5, T: 3, Protocol: p})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d round(s)\n", p, rep.MaxDecideRound())
	}
	// Output:
	// crw: 1 round(s)
	// earlystop: 2 round(s)
	// floodset: 4 round(s)
}

// A dying coordinator that completes its data step but reaches only a prefix
// of its ordered commit sequence makes exactly the high-id processes decide
// early — the prefix-delivery rule of the extended model in action.
func ExampleRun_commitPrefix() {
	rep, err := agree.Run(agree.Config{
		N: 5,
		Faults: agree.ScriptedFaults(map[int]agree.CrashPlan{
			1: {Round: 1, DeliverAllData: true, CtrlPrefix: 2}, // commits reach p5, p4
		}),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("p5 decided at round", rep.DecideRound[5])
	fmt.Println("p2 decided at round", rep.DecideRound[2])
	fmt.Println("agreement:", rep.ConsensusErr == nil)
	// Output:
	// p5 decided at round 1
	// p2 decided at round 2
	// agreement: true
}

// The paper's algorithm in the extended synchronous model, first
// failure-free (one round), then under the worst-case schedule that crashes
// the first two coordinators (f+1 = 3 rounds), then the same run on the
// goroutine runtime — processes run concurrently on P = min(n, GOMAXPROCS)
// goroutines, mail routed between barrier phases, identical outcome.
func ExampleRun_quickstart() {
	// Failure-free: the first coordinator imposes its proposal in one round.
	rep, err := agree.Run(agree.Config{N: 8, Protocol: agree.ProtocolCRW})
	if err != nil {
		panic(err)
	}
	fmt.Printf("failure-free: decided %d in %d round(s), %d messages, consensus ok = %t\n",
		rep.Decisions[8], rep.Rounds, rep.Counters.TotalMsgs(), rep.ConsensusErr == nil)

	// Worst case for f=2: the adversary silently kills coordinators p1 and
	// p2 in their own rounds; p3 finishes the job in round 3 = f+1.
	rep, err = agree.Run(agree.Config{N: 8, Faults: agree.CoordinatorCrashes(2)})
	if err != nil {
		panic(err)
	}
	fmt.Printf("f=2 worst case: decided %d in %d round(s) (= f+1), crashed %v, consensus ok = %t\n",
		rep.Decisions[8], rep.Rounds, rep.Crashed, rep.ConsensusErr == nil)

	rep, err = agree.Run(agree.Config{N: 8, Engine: agree.EngineLockstep,
		Faults: agree.CoordinatorCrashes(2)})
	if err != nil {
		panic(err)
	}
	fmt.Printf("lockstep engine: decided %d in %d round(s), consensus ok = %t\n",
		rep.Decisions[8], rep.Rounds, rep.ConsensusErr == nil)
	// Output:
	// failure-free: decided 100 in 1 round(s), 14 messages, consensus ok = true
	// f=2 worst case: decided 102 in 3 round(s) (= f+1), crashed map[1:1 2:2], consensus ok = true
	// lockstep engine: decided 102 in 3 round(s), consensus ok = true
}

// A fault-injection campaign: the number and style of crashes swept across
// all three protocols as one Sweep batch, uniform consensus validated on
// every run, decision rounds and traffic charted. This is the workload a
// downstream user would run to pick a protocol for a crash-prone cluster.
// The sweep is deterministic for any worker count.
func ExampleSweep() {
	const n = 12
	t := n - 1

	scenarios := []struct {
		name   string
		faults agree.FaultSpec
	}{
		{"none", agree.NoFaults()},
		{"kill 1 coordinator", agree.CoordinatorCrashes(1)},
		{"kill 4 coordinators", agree.CoordinatorCrashes(4)},
		{"kill 4, deliver data", agree.CoordinatorCrashesDelivering(4, 0)},
		{"kill 4, deliver all", agree.CoordinatorCrashesDelivering(4, agree.CtrlAll)},
		{"random p=0.2 seed=1", agree.RandomFaults(1, 0.2, t)},
		{"random p=0.4 seed=9", agree.RandomFaults(9, 0.4, t)},
	}
	protocols := []agree.Protocol{agree.ProtocolCRW, agree.ProtocolEarlyStop, agree.ProtocolFloodSet}

	// One flat batch: protocol-major, scenario-minor — the same order the
	// report is printed in.
	var configs []agree.Config
	for _, p := range protocols {
		for _, sc := range scenarios {
			configs = append(configs, agree.Config{N: n, T: t, Protocol: p, Faults: sc.faults})
		}
	}
	sr := agree.Sweep(configs, agree.SweepOptions{})

	fmt.Printf("fault sweep on n=%d processes (t=%d)\n\n", n, t)
	fmt.Printf("%-11s %-24s %-7s %-7s %-9s %s\n",
		"protocol", "fault scenario", "f", "rounds", "messages", "verdict")
	for pi, p := range protocols {
		for si, sc := range scenarios {
			item := sr.Items[pi*len(scenarios)+si]
			if item.Err != nil {
				panic(item.Err)
			}
			rep := item.Report
			verdict := "ok"
			if rep.ConsensusErr != nil {
				verdict = "VIOLATION"
			}
			fmt.Printf("%-11s %-24s %-7d %-7d %-9d %s\n",
				p, sc.name, rep.Faults(), rep.MaxDecideRound(), rep.Counters.TotalMsgs(), verdict)
		}
		fmt.Println()
	}

	agg := sr.Aggregate
	fmt.Printf("aggregate: %d runs, %d violations, rounds histogram %v\n",
		agg.Configs, agg.Violations, agg.RoundHistogram)
	fmt.Printf("traffic:   %s\n\n", agg.Counters.String())
	fmt.Println("Reading: CRW tracks f+1 exactly and transmits O(n) messages per round;")
	fmt.Println("the classic baselines pay one extra round (early stopping) or always t+1")
	fmt.Println("rounds and Θ(n²) messages per round (flooding).")
	// Output:
	// fault sweep on n=12 processes (t=11)
	//
	// protocol    fault scenario           f       rounds  messages  verdict
	// crw         none                     0       1       22        ok
	// crw         kill 1 coordinator       1       2       20        ok
	// crw         kill 4 coordinators      4       5       14        ok
	// crw         kill 4, deliver data     4       5       52        ok
	// crw         kill 4, deliver all      1       1       22        ok
	// crw         random p=0.2 seed=1      0       1       22        ok
	// crw         random p=0.4 seed=9      5       1       22        ok
	//
	// earlystop   none                     0       2       264       ok
	// earlystop   kill 1 coordinator       1       3       363       ok
	// earlystop   kill 4 coordinators      4       6       594       ok
	// earlystop   kill 4, deliver data     2       2       253       ok
	// earlystop   kill 4, deliver all      2       2       253       ok
	// earlystop   random p=0.2 seed=1      2       2       255       ok
	// earlystop   random p=0.4 seed=9      11      12      296       ok
	//
	// floodset    none                     0       12      264       ok
	// floodset    kill 1 coordinator       1       12      242       ok
	// floodset    kill 4 coordinators      4       12      231       ok
	// floodset    kill 4, deliver data     4       12      253       ok
	// floodset    kill 4, deliver all      4       12      253       ok
	// floodset    random p=0.2 seed=1      11      12      255       ok
	// floodset    random p=0.4 seed=9      11      12      197       ok
	//
	// aggregate: 21 runs, 0 violations, rounds histogram map[1:4 2:5 3:1 5:2 6:1 12:8]
	// traffic:   rounds=129 data=4079(746598b) ctrl=68(68b) dropped=267/87
	//
	// Reading: CRW tracks f+1 exactly and transmits O(n) messages per round;
	// the classic baselines pay one extra round (early stopping) or always t+1
	// rounds and Θ(n²) messages per round (flooding).
}
