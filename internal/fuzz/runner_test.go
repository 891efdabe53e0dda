package fuzz

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// These tests pin the Runner to what a fresh one gives: a runner reused
// across seeds, sizes, generators and findings reports every seed exactly
// like RunSeed, its shrinker makes the decisions of the copying
// shrinker it replaced (kept below as a test-only reference), and a warmed
// runner runs a passing seed and replays a script without allocating.

// systemsFactory builds CRW (or its commit-as-data ablation) at size n into
// one protocol.Systems, as a campaign worker does: it allocates nothing
// once the systems have grown to n.
func systemsFactory(t *testing.T, n int, commitAsData bool) Factory {
	t.Helper()
	spec, err := protocol.Spec{N: n, CommitAsData: commitAsData}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var sys protocol.Systems
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = sim.Value(10 + i)
	}
	return func() Target {
		procs, model, horizon := spec.Build(&sys, props)
		return Target{Model: model, Horizon: horizon, Procs: procs, Proposals: props}
	}
}

// outcomeSummary is everything an Outcome reports, its views rendered.
type outcomeSummary struct {
	script, shrunk, err, shrunkErr, fatal string
	execs                                 int
	rounds, maxDecide                     sim.Round
	faults, omissive                      int
}

func summary(out Outcome, fatal error) outcomeSummary {
	s := outcomeSummary{
		script: out.Script.String(), err: errText(out.Err), shrunkErr: errText(out.ShrunkErr), fatal: errText(fatal),
		execs: out.Executions, rounds: out.Rounds, maxDecide: out.MaxDecideRound, faults: out.Faults, omissive: out.Omissive,
	}
	if out.Shrunk != nil {
		s.shrunk = out.Shrunk.String()
	}
	return s
}

// runnerGens are the generators the runner tests sample: crash faults with
// law audits, and omissions with crashes under a small omissive budget.
var runnerGens = []struct {
	name   string
	gen    Gen
	oracle Oracle
}{
	{"crash", Gen{T: 4, CrashProb: 0.3},
		Oracles(ConsensusOracle(check.BoundFPlus1), LawOracle(laws.Budget{Crashes: 4}))},
	{"omission", Gen{T: 2, CrashProb: 0.2, SendOmitProb: 0.2, RecvOmitProb: 0.15, MaxOmissive: 2},
		ConsensusOracle(nil)},
}

// TestRunnerReuseMatchesFresh runs one Runner across seeds at n = 8, 16, 8,
// with the crash and the omission generator, alternating the faithful
// protocol (passing seeds) with the commit-as-data ablation (findings it
// shrinks). Every seed must report what a fresh RunSeed reports: script,
// shrunk script, both verdicts, counts and executions.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	eng := newEngine(t)
	var r Runner
	passes, shrunk := map[string]int{}, map[string]int{}
	for _, tc := range runnerGens {
		for _, n := range []int{8, 16, 8} {
			factories := [2]Factory{systemsFactory(t, n, false), systemsFactory(t, n, true)}
			for seed := int64(0); seed < 60; seed++ {
				factory := factories[seed%2]
				opts := Options{Gen: tc.gen, Shrink: true, MaxShrinkRuns: 128}
				got := summary(r.Run(eng, factory, tc.oracle, seed, opts))
				want := summary(RunSeed(newEngine(t), factory, tc.oracle, seed, opts))
				if got != want {
					t.Fatalf("%s, n=%d, seed %d on a reused runner:\n got  %+v\n want %+v", tc.name, n, seed, got, want)
				}
				if want.fatal != "" {
					t.Fatalf("%s, n=%d, seed %d: %s", tc.name, n, seed, want.fatal)
				}
				switch {
				case want.err == "":
					passes[tc.name]++
				case want.shrunk != "":
					shrunk[tc.name]++
				}
			}
		}
	}
	for _, tc := range runnerGens {
		if passes[tc.name] < 20 || shrunk[tc.name] < 10 {
			t.Errorf("%s: %d passing seeds and %d shrunk findings; the sequence must interleave both",
				tc.name, passes[tc.name], shrunk[tc.name])
		}
	}
}

// TestRunnerAllocs pins a warmed runner: a passing seed that injects faults
// allocates nothing, and neither does a replay, for crash and omission
// scripts alike, masks that cover the plan (views of the script's own) and
// shorter ones (padded into the replayer's arena).
func TestRunnerAllocs(t *testing.T) {
	const n = 16
	replays := map[string][]string{
		"crash":    {"p2@r1:1111111111111111/3;p3@r2:1010101010101010/0", "p2@r1:1/0;p3@r2:/0"},
		"omission": {"p1@r1:so:0111111111111111/111111111111111;p2@r1:ro:0111111111111111;p3@r2:1/0", "p1@r1:so:0/1;p2@r1:ro:01"},
	}
	for _, tc := range runnerGens {
		t.Run(tc.name, func(t *testing.T) {
			eng, factory := newEngine(t), systemsFactory(t, n, false)
			opts := Options{Gen: tc.gen, Shrink: true}
			var r Runner
			seed := int64(0)
			for ; seed < 100; seed++ {
				out, err := r.Run(eng, factory, tc.oracle, seed, opts)
				if err != nil {
					t.Fatal(err)
				}
				if out.Err == nil && out.Script.Crashes() > 0 {
					break
				}
			}
			run := func() {
				if out, err := r.Run(eng, factory, tc.oracle, seed, opts); err != nil || out.Err != nil {
					t.Fatalf("seed %d: %v %v", seed, err, out.Err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Errorf("a passing seed on a warmed runner allocates %.1f, want 0", allocs)
			}
			for _, text := range replays[tc.name] {
				s, err := Parse(text)
				if err != nil {
					t.Fatal(err)
				}
				replay := func() {
					if _, err := r.replay(s); err != nil {
						t.Fatal(err)
					}
				}
				replay()
				if allocs := testing.AllocsPerRun(100, replay); allocs != 0 {
					t.Errorf("replaying %q on a warmed runner allocates %.1f, want 0", text, allocs)
				}
			}
		})
	}
}

// clone returns a deep copy of the event, and clone of a script a deep copy
// of every event: the reference shrinker's candidates.
func (e Event) clone() Event {
	e.Data = append([]bool(nil), e.Data...)
	e.CtrlMask = append([]bool(nil), e.CtrlMask...)
	e.From = append([]bool(nil), e.From...)
	return e
}

func (s Script) clone() Script {
	out := Script{Events: make([]Event, len(s.Events))}
	for i, e := range s.Events {
		out.Events[i] = e.clone()
	}
	return out
}

// refShrink is the shrinker the runner replaced: every candidate a deep
// copy (clone), every adopted verdict a check.Detach. It is the reference the
// runner's shrinker must match decision for decision.
func refShrink(s Script, serr error, maxRound, budget int, test func(Script) (error, error)) (Script, error, error) {
	cur := s.clone()
	curErr := check.Detach(serr)
	runs := 0
	var fatal error
	try := func(cand Script) bool {
		if fatal != nil || runs >= budget || cand.validate() != nil {
			return false
		}
		runs++
		verr, ferr := test(cand)
		if ferr != nil {
			fatal = ferr
			return false
		}
		if verr == nil {
			return false
		}
		cand.normalize()
		cur, curErr = cand, check.Detach(verr)
		return true
	}
	done := func() bool { return fatal != nil || runs >= budget }
	keys := func(s Script) []evKey { return appendKeys(nil, s) }
	for {
		progress := false
		for chunk := len(cur.Events); chunk >= 1 && !done(); chunk /= 2 {
			for lo := 0; lo+chunk <= len(cur.Events) && !done(); {
				cand := cur.clone()
				cand.Events = append(cand.Events[:lo], cand.Events[lo+chunk:]...)
				if try(cand) {
					progress = true
					continue
				}
				lo++
			}
		}
		for _, k := range keys(cur) {
			for !done() {
				i := eventIndex(cur, k)
				if i < 0 || cur.Events[i].Round >= maxRound {
					break
				}
				cand := cur.clone()
				cand.Events[i].Round++
				if !try(cand) {
					break
				}
				k.round++
				progress = true
			}
		}
		for _, k := range keys(cur) {
			if k.kind != EventCrash {
				continue
			}
			for !done() {
				i := eventIndex(cur, k)
				if i < 0 || cur.Events[i].Ctrl == 0 {
					break
				}
				c := cur.Events[i].Ctrl
				accepted := false
				tried := map[int]bool{}
				for _, next := range []int{0, c / 2, c - 1} {
					if next >= c || tried[next] {
						continue
					}
					tried[next] = true
					cand := cur.clone()
					cand.Events[i].Ctrl = next
					if try(cand) {
						accepted, progress = true, true
						break
					}
					if done() {
						break
					}
				}
				if !accepted {
					break
				}
			}
			for bit := 0; !done(); bit++ {
				i := eventIndex(cur, k)
				if i < 0 || cur.Events[i].Ctrl != 0 || bit >= len(cur.Events[i].Data) {
					break
				}
				if !cur.Events[i].Data[bit] {
					continue
				}
				cand := cur.clone()
				cand.Events[i].Data[bit] = false
				if try(cand) {
					progress = true
				}
			}
		}
		for _, k := range keys(cur) {
			if k.kind == EventCrash {
				continue
			}
			for _, field := range []func(*Event) []bool{
				func(e *Event) []bool { return e.Data },
				func(e *Event) []bool { return e.CtrlMask },
				func(e *Event) []bool { return e.From },
			} {
				for bit := 0; !done(); bit++ {
					i := eventIndex(cur, k)
					if i < 0 || bit >= len(field(&cur.Events[i])) {
						break
					}
					if field(&cur.Events[i])[bit] {
						continue
					}
					cand := cur.clone()
					field(&cand.Events[i])[bit] = true
					if try(cand) {
						progress = true
					}
				}
			}
		}
		if !progress || done() {
			return cur, curErr, fatal
		}
	}
}

// TestShrinkMatchesCloneReference shrinks the findings of the commit-as-data
// ablation under both generators, at two budgets, on one reused runner,
// and requires the reference shrinker's script, verdict and replay count.
// A candidate sharing a mask with the current script, or a verdict left
// reading the engine's result, would change them.
func TestShrinkMatchesCloneReference(t *testing.T) {
	const n = 8
	eng, refEng := newEngine(t), newEngine(t)
	factory := systemsFactory(t, n, true)
	var r Runner
	compared := 0
	for _, tc := range runnerGens {
		for _, budget := range []int{24, 512} {
			opts := Options{Gen: tc.gen, Shrink: true, MaxShrinkRuns: budget}
			for seed := int64(0); seed < 30; seed++ {
				out, err := r.Run(eng, factory, tc.oracle, seed, opts)
				if err != nil {
					t.Fatal(err)
				}
				if out.Shrunk == nil {
					continue
				}
				got := summary(out, nil)
				script := out.Script.clone()
				refRuns := 0
				test := func(s Script) (error, error) {
					tgt := factory()
					res, rerr := refEng.Run(harness.Job{Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: s.Adversary()})
					if res == nil {
						return nil, rerr
					}
					refRuns++
					return tc.oracle(tgt.Proposals, res, rerr), nil
				}
				verr, _ := test(script)
				want, wantErr, fatal := refShrink(script, verr, int(factory().Horizon), budget, test)
				if fatal != nil {
					t.Fatal(fatal)
				}
				if got.shrunk != want.String() || got.shrunkErr != errText(wantErr) || got.execs != 1+refRuns {
					t.Fatalf("%s, budget %d, seed %d: runner shrank %q to %q (%s) in %d executions; reference %q (%s) in %d",
						tc.name, budget, seed, got.script, got.shrunk, got.shrunkErr, got.execs,
						want.String(), errText(wantErr), 1+refRuns)
				}
				compared++
			}
		}
	}
	if compared < 20 {
		t.Errorf("only %d shrunk findings compared", compared)
	}
}

// refEventString is Event.String as fmt rendered it, and refScriptString
// Script.String as strings.Join of those: the reference the one-builder
// rendering must match byte for byte.
func refEventString(e Event) string {
	var b []byte
	b = fmt.Appendf(b, "p%d@r%d:", e.Proc, e.Round)
	mask := func(m []bool) {
		for _, d := range m {
			if d {
				b = append(b, '1')
			} else {
				b = append(b, '0')
			}
		}
	}
	switch e.Kind {
	case EventSendOmit:
		b = append(b, "so:"...)
		mask(e.Data)
		b = append(b, '/')
		mask(e.CtrlMask)
	case EventRecvOmit:
		b = append(b, "ro:"...)
		mask(e.From)
	default:
		mask(e.Data)
		b = fmt.Appendf(b, "/%d", e.Ctrl)
	}
	return string(b)
}

func refScriptString(s Script) string {
	out := ""
	for i, e := range s.Events {
		if i > 0 {
			out += ";"
		}
		out += refEventString(e)
	}
	return out
}

// TestScriptStringMatchesReference renders random scripts, shrink-style
// mutants and events with extreme fields both ways, and pins a script's
// rendering at one allocation (none for the empty script).
func TestScriptStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		s := randomScript(rng, 1+rng.Intn(12), 1+rng.Intn(6))
		if i%3 == 0 {
			s = mutate(rng, s)
		}
		if i%5 == 0 && len(s.Events) > 0 {
			e := &s.Events[rng.Intn(len(s.Events))]
			e.Proc, e.Round, e.Ctrl = math.MinInt, math.MaxInt, -rng.Intn(1000)
		}
		if got, want := s.String(), refScriptString(s); got != want {
			t.Fatalf("String %q, reference %q", got, want)
		}
		for _, e := range s.Events {
			if got, want := e.String(), refEventString(e); got != want {
				t.Fatalf("Event.String %q, reference %q", got, want)
			}
		}
	}

	s, err := Parse("p1@r1:so:0111/11;p2@r1:ro:01101;p3@r2:10110/0;p12@r3:11111111/7")
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.String() }); allocs != 1 {
		t.Errorf("String allocates %.1f, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Script{}.String() }); allocs != 0 {
		t.Errorf("String of the empty script allocates %.1f, want 0", allocs)
	}
}
