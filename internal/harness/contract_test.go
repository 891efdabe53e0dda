package harness_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus/earlystop"
	"repro/internal/consensus/floodset"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/leakcheck"
	"repro/internal/sim"
	"repro/internal/timed"
	"repro/internal/trace"
)

// TestConcurrentEngineContract checks what every engine registered in the
// harness owes, once per harness.Kinds() entry, so a new engine joins it by
// registering and nothing else:
//
//   - reference: the engine matches the reference model on random crash
//     scripts, mixed fault scripts and replayed fuzz schedules, for every
//     protocol and both CRW ablations, Ledger included;
//   - reuse: one engine runs jobs of n = 8, 64, 8, 32, 64, 16, the second
//     n = 64 aborted, and each clean run equals a fresh engine's and outlives
//     the later runs as a clone;
//   - lifetime: no plan, payload or crash mask is read or written past its
//     contract (planlifetime_test.go);
//   - aborts: every abort returns its error and leaves the engine reusable,
//     and Close releases every goroutine after the abort and after a clean
//     run that follows it;
//   - capabilities: an engine does what it advertises, and a job asking for
//     what it lacks fails naming the capability (one of the aborts).
//
// Every clean run passes the law audit with counters that equal its ledger.
// An engine without the Deterministic capability schedules its processes
// concurrently, so its differential also runs at GOMAXPROCS = n, one shard
// per process, where barrier faults surface. scripts/verify.sh runs this
// under -race -count=10.
func TestConcurrentEngineContract(t *testing.T) {
	ref := newRefSuite(t)
	for _, kind := range harness.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			caps, _ := harness.Lookup(kind)
			t.Run("reference", func(t *testing.T) { ref.check(t, kind, false) })
			if !caps.Deterministic {
				t.Run("reference-GOMAXPROCS=n", func(t *testing.T) { ref.check(t, kind, true) })
			}
			t.Run("reuse", func(t *testing.T) { checkReuse(t, kind) })
			t.Run("lifetime", func(t *testing.T) { checkLifetimes(t, kind, caps) })
			t.Run("aborts", func(t *testing.T) { checkAborts(t, kind, caps) })
			t.Run("capabilities", func(t *testing.T) { checkCapabilities(t, kind, caps) })
		})
	}
}

// clean fails the test unless a run finished without error, passes the law
// audit and books in its counters what its ledger records.
func clean(t *testing.T, what string, res *sim.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := laws.Audit(res); err != nil {
		t.Errorf("%s: %v", what, err)
	}
	c, l := res.Counters, res.Ledger
	if c.Rounds != int(res.Rounds) || c.OmittedRecv != l.RecvOmitData+l.RecvOmitCtrl || c.Late != l.LateData+l.LateCtrl {
		t.Errorf("%s: counters %s disagree with ledger %s", what, c.String(), l.String())
	}
}

// engine returns the cache's engine of the kind.
func engine(t *testing.T, cache *harness.Cache, kind harness.Kind) harness.Engine {
	t.Helper()
	eng, err := cache.Get(kind)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// freshRun runs j cleanly on a newly built engine of the kind and returns a
// clone of its result, the reference a reused engine must match.
func freshRun(t *testing.T, kind harness.Kind, j harness.Job) *sim.Result {
	t.Helper()
	cache := harness.NewCache()
	defer cache.Close()
	res, err := engine(t, cache, kind).Run(j)
	clean(t, "fresh "+string(kind)+" engine", res, err)
	return res.Clone()
}

// released fails the test unless the goroutine count comes back to base.
func released(t *testing.T, what string, base int) {
	t.Helper()
	if got := leakcheck.Settle(base, leakcheck.Timeout); got > base {
		t.Errorf("%s: %d goroutines, want the baseline %d", what, got, base)
	}
}

// classicJob builds a classic-model job of a floodset (or earlystop) system
// of n processes tolerating n-1 crashes.
func classicJob(n int, early bool, horizon sim.Round, adv sim.Adversary) harness.Job {
	procs := floodset.NewSystem(refProposals(n), n-1, 64)
	if early {
		procs = earlystop.NewSystem(refProposals(n), n-1, 64)
	}
	return harness.Job{Model: sim.ModelClassic, Horizon: horizon, Procs: procs, Adv: adv}
}

// crwJob builds a CRW job of n processes with the default horizon.
func crwJob(n int, adv sim.Adversary) harness.Job {
	return harness.Job{Model: sim.ModelExtended, Procs: core.NewSystem(refProposals(n), core.Options{}), Adv: adv}
}

// with returns j with its process p replaced by wrap of it.
func with(j harness.Job, p sim.ProcID, wrap func(sim.Process) sim.Process) harness.Job {
	j.Procs[p-1] = wrap(j.Procs[p-1])
	return j
}

// replayOf returns the replaying adversary of a fault script.
func replayOf(t *testing.T, script string) sim.Adversary {
	t.Helper()
	s, err := fuzz.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	return s.Adversary()
}

// capacityErr is the error of flooding p1 from p2 in round 1.
const capacityErr = "sim: p2 sends 3 messages to p1 in one round (channel capacity 2) (round 1)"

// checkReuse drives one engine through the sizes 8, 64, 8, 32, 64, 16 over
// every protocol, crashes with partial deliveries, omissions, default and
// explicit horizons. The second n = 64 job aborts in round 1 after p1 has
// sent its mail, so the next arming starts over what the abort left behind.
// Every clean run must equal a fresh engine's, and so must its clone after
// all later runs (the clones subtest): an engine never carries state over
// from an earlier, larger or aborted run, and a clone shares nothing with the
// engine's result.
func checkReuse(t *testing.T, kind harness.Kind) {
	killer := func(f int) sim.Adversary { return adversary.CoordinatorKiller{F: f, DeliverAllData: true} }
	steps := []struct {
		job   func() harness.Job
		abort bool // ends with the capacity error
	}{
		{job: func() harness.Job { return crwJob(8, killer(1)) }},
		{job: func() harness.Job { return crwJob(64, killer(8)) }},
		{job: func() harness.Job { return classicJob(8, false, 0, adversary.None{}) }},
		{job: func() harness.Job {
			return classicJob(32, true, 33, adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
				1: {Round: 1, DataMask: []bool{true, false, true}},
				2: {Round: 2},
			}))
		}},
		{job: func() harness.Job { return with(crwJob(64, adversary.None{}), 2, flood) }, abort: true},
		{job: func() harness.Job {
			return crwJob(16, replayOf(t, "p1@r1:so:101/01;p3@r1:ro:"+strings.Repeat("0", 16)+";p3@r2:ro:01"))
		}},
	}
	cache := harness.NewCache()
	defer cache.Close()
	eng := engine(t, cache, kind)
	var kept, wants []*sim.Result
	crashed, omissive := false, false
	for i, step := range steps {
		j := step.job()
		n := len(j.Procs)
		res, err := eng.Run(j)
		if step.abort {
			if err == nil || err.Error() != capacityErr {
				t.Fatalf("job %d (n=%d): err = %v, want %q", i, n, err, capacityErr)
			}
			continue
		}
		clean(t, fmt.Sprintf("job %d (n=%d)", i, n), res, err)
		want := freshRun(t, kind, step.job())
		if !reflect.DeepEqual(res, want) {
			t.Errorf("job %d (n=%d): reused engine\n got %+v\nwant %+v", i, n, res, want)
		}
		kept, wants = append(kept, res.Clone()), append(wants, want)
		crashed = crashed || res.Faults() > 0
		omissive = omissive || res.OmissionFaulty() > 0
	}
	t.Run("clones", func(t *testing.T) {
		for i := range kept {
			if !reflect.DeepEqual(kept[i], wants[i]) {
				t.Errorf("clone %d changed after later runs:\n got %+v\nwant %+v", i, kept[i], wants[i])
			}
		}
	})
	if !crashed || !omissive {
		t.Errorf("jobs exercised crashes %v, omissions %v; want both", crashed, omissive)
	}
}

// checkAborts ends a run on every abort path, twice: on a fresh engine that
// is then closed (subtest close), and on an engine warmed up by a clean n = 16 run that then
// runs n = 16 again — which must equal a fresh engine's run, over the slabs
// and outboxes the n = 8 abort left behind — and is then closed (subtest
// rearm). Either way
// every goroutine the engine started must be gone after Close.
func checkAborts(t *testing.T, kind harness.Kind, caps harness.Capabilities) {
	aborts := []struct {
		name string
		job  func() harness.Job
		is   error  // the error wanted, or
		msg  string // a substring of it; neither wants a clean run
		skip bool
	}{
		{name: "horizon", is: sim.ErrNoProgress, job: func() harness.Job {
			j := crwJob(8, adversary.CoordinatorKiller{F: 2})
			j.Horizon = 2
			return j
		}},
		{name: "control-in-classic", is: sim.ErrControlInClassic, job: func() harness.Job {
			return with(classicJob(8, false, 0, adversary.None{}), 2, func(p sim.Process) sim.Process { return ctrlSender{p} })
		}},
		{name: "bad-outcome", is: sim.ErrBadOutcome, job: func() harness.Job { return crwJob(8, badOutcome{}) }},
		{name: "bad-omission", is: sim.ErrBadOmission, job: func() harness.Job { return crwJob(8, badOmitter{}) }},
		{name: "halt-without-decision", is: sim.ErrHaltedWithoutDecision, job: func() harness.Job {
			return with(crwJob(8, adversary.None{}), 3, func(p sim.Process) sim.Process { return &quitter{id: p.ID()} })
		}},
		{name: "channel-capacity", msg: capacityErr, job: func() harness.Job { return with(crwJob(8, adversary.None{}), 2, flood) }},
		{name: "all-crash", job: func() harness.Job { return crwJob(8, crashAll(8)) }},
		{name: "bad-ids", msg: "has id", job: func() harness.Job {
			j := crwJob(8, adversary.None{})
			j.Procs[1], j.Procs[2] = j.Procs[2], j.Procs[1]
			return j
		}},
		{name: "no-processes", msg: "no processes", job: func() harness.Job { return harness.Job{Adv: adversary.None{}} }},
		{name: "nil-adversary", msg: "nil adversary", job: func() harness.Job { return crwJob(8, nil) }},
		{name: "trace-capability", msg: "no trace capability", skip: caps.Trace, job: func() harness.Job {
			j := crwJob(8, adversary.None{})
			j.Trace = trace.New()
			return j
		}},
		{name: "timed-capability", msg: "no timed capability", skip: caps.Timed, job: func() harness.Job {
			j := crwJob(8, adversary.None{})
			j.Latency = timed.Fixed{D: 1}
			return j
		}},
	}
	follow := func() harness.Job { return crwJob(16, adversary.CoordinatorKiller{F: 3, DeliverAllData: true}) }
	for _, ab := range aborts {
		if ab.skip {
			continue
		}
		t.Run(ab.name, func(t *testing.T) {
			run := func(t *testing.T, eng harness.Engine) {
				t.Helper()
				j := ab.job()
				res, err := eng.Run(j)
				switch {
				case ab.is == nil && ab.msg == "":
					clean(t, "run", res, err)
					if res.Faults() != len(j.Procs) {
						t.Fatalf("%d crashes, want all %d", res.Faults(), len(j.Procs))
					}
				case ab.is != nil && !errors.Is(err, ab.is):
					t.Fatalf("err = %v, want %v", err, ab.is)
				case ab.msg != "" && (err == nil || !strings.Contains(err.Error(), ab.msg)):
					t.Fatalf("err = %v, want one containing %q", err, ab.msg)
				case errors.Is(err, sim.ErrNoProgress) && (res.Rounds != j.Horizon || res.Counters.Rounds != int(j.Horizon)):
					t.Errorf("partial result over %d/%d rounds, want the horizon %d", res.Rounds, res.Counters.Rounds, j.Horizon)
				}
			}
			for _, mode := range []struct {
				name  string
				rearm bool
			}{{"close", false}, {"rearm", true}} {
				t.Run(mode.name, func(t *testing.T) {
					base := runtime.NumGoroutine()
					cache := harness.NewCache()
					eng := engine(t, cache, kind)
					if mode.rearm {
						res, err := eng.Run(follow())
						clean(t, "warm-up run", res, err)
					}
					run(t, eng)
					if mode.rearm {
						res, err := eng.Run(follow())
						clean(t, "run after the abort", res, err)
						if want := freshRun(t, kind, follow()); !reflect.DeepEqual(res, want) {
							t.Errorf("run after the abort\n got %+v\nwant %+v", res, want)
						}
					}
					cache.Close()
					released(t, "after Close", base)
				})
			}
		})
	}
}

// checkCapabilities runs a job bare and then with each capability the engine
// advertises: a transcript is recorded, leaves the result alone and stops
// with its job; a latency model prices every round. An engine reports a
// simulated time exactly when it is timed.
func checkCapabilities(t *testing.T, kind harness.Kind, caps harness.Capabilities) {
	cache := harness.NewCache()
	defer cache.Close()
	eng := engine(t, cache, kind)
	if eng.Kind() != kind || eng.Capabilities() != caps {
		t.Errorf("engine reports %q %+v, the registry %q %+v", eng.Kind(), eng.Capabilities(), kind, caps)
	}
	job := func() harness.Job { return crwJob(6, adversary.CoordinatorKiller{F: 2}) }
	bare, err := eng.Run(job())
	clean(t, "bare run", bare, err)
	if caps.Timed != (bare.SimTime > 0) {
		t.Errorf("SimTime %g on an engine with Timed %v", bare.SimTime, caps.Timed)
	}
	bare = bare.Clone()
	if caps.Trace {
		j := job()
		j.Trace = trace.New()
		res, err := eng.Run(j)
		clean(t, "traced run", res, err)
		if !reflect.DeepEqual(res, bare) {
			t.Errorf("the transcript changed the result:\n got %+v\nwant %+v", res, bare)
		}
		recorded := j.Trace.String()
		if recorded == "" {
			t.Error("traced job produced no transcript")
		}
		res, err = eng.Run(job())
		clean(t, "untraced run", res, err)
		if j.Trace.String() != recorded {
			t.Error("untraced job appended to the previous job's transcript")
		}
	}
	if caps.Timed {
		j := job()
		j.Latency = timed.Fixed{D: 1, Delta: 0.25}
		res, err := eng.Run(j)
		clean(t, "timed run", res, err)
		if want := float64(res.Rounds) * 1.25; res.Rounds != bare.Rounds || res.SimTime != want {
			t.Errorf("%d rounds in SimTime %g, want %d rounds of D+δ = 1.25", res.Rounds, res.SimTime, bare.Rounds)
		}
	}
}

// quitter halts after its first round without deciding, which no correct
// protocol may do.
type quitter struct {
	id   sim.ProcID
	done bool
}

func (q *quitter) ID() sim.ProcID                   { return q.id }
func (q *quitter) Send(sim.Round) sim.SendPlan      { return sim.SendPlan{} }
func (q *quitter) Receive(sim.Round, []sim.Message) { q.done = true }
func (q *quitter) Decided() (sim.Value, bool)       { return 0, false }
func (q *quitter) Halted() bool                     { return q.done }

// flooder makes its process send three data messages to p1 in round 1, one
// more than the channel carries in a round.
type flooder struct{ sim.Process }

func flood(p sim.Process) sim.Process { return flooder{p} }

func (f flooder) Send(r sim.Round) sim.SendPlan {
	if r != 1 {
		return f.Process.Send(r)
	}
	est := &sim.Est{V: 1, B: 64}
	return sim.SendPlan{Data: []sim.Outgoing{{To: 1, Payload: est}, {To: 1, Payload: est}, {To: 1, Payload: est}}}
}

// ctrlSender adds a control message to its process's plan, which the
// classic model rejects.
type ctrlSender struct{ sim.Process }

func (p ctrlSender) Send(r sim.Round) sim.SendPlan {
	plan := p.Process.Send(r)
	plan.Control = []sim.ProcID{1}
	return plan
}

// badOutcome crashes p2 in round 1 with a delivery mask that does not fit
// its plan.
type badOutcome struct{}

func (badOutcome) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if p != 2 || r != 1 {
		return false, sim.CrashOutcome{}
	}
	return true, sim.CrashOutcome{DataDelivered: make([]bool, len(plan.Data)+1)}
}

// badOmitter returns a send-omission mask that does not fit p2's round-1
// plan.
type badOmitter struct{ adversary.None }

func (badOmitter) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	if p != 2 || r != 1 {
		return sim.Omission{}
	}
	return sim.Omission{Data: make([]bool, len(plan.Data)+3)}
}

// crashAll crashes every process in round 1.
func crashAll(n int) sim.Adversary {
	plans := make(map[sim.ProcID]adversary.CrashPlan, n)
	for id := 1; id <= n; id++ {
		plans[sim.ProcID(id)] = adversary.CrashPlan{Round: 1}
	}
	return adversary.NewScript(plans)
}
