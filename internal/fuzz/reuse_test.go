package fuzz

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
)

// These tests pin the allocation-lean seed loop to the code it replaced: a
// recycled, re-seeded recorder walks exactly like a fresh one, the slice
// replayer answers exactly like the map-backed one, and normalize orders
// exactly like sort.Slice. The replaced code is kept below as test-only
// references.

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// walkSummary is what RunSeed reports about a seed's generating run.
type walkSummary struct {
	script           string
	rounds           sim.Round
	faults, omissive int
	err              string
}

func summarize(out Outcome) walkSummary {
	return walkSummary{out.Script.String(), out.Rounds, out.Faults, out.Omissive, errText(out.Err)}
}

// walk executes one random walk with the given recorder and summarizes it
// the way RunSeed does.
func walk(t *testing.T, eng harness.Engine, factory Factory, oracle Oracle, rec *recorder, gen Gen) walkSummary {
	t.Helper()
	tgt := factory()
	res, runErr := eng.Run(harness.Job{Model: tgt.Model, Horizon: tgt.Horizon, Procs: tgt.Procs, Adv: rec.adversary(gen.omitting())})
	if res == nil {
		t.Fatal(runErr)
	}
	return walkSummary{rec.Script().String(), res.Rounds, res.Faults(), res.OmissionFaulty(),
		errText(oracle(tgt.Proposals, res, runErr))}
}

// TestRecycledRecorderMatchesFresh runs every seed on a recorder another seed
// has just used — once through an explicitly reused recorder, once through
// a Runner's, sequentially and on four goroutines with a runner each — and
// requires the outcome a fresh recorder reset for the seed gives. The
// omission generator populates the omissive set under a small budget, so a
// reset that forgot it would change the walk.
func TestRecycledRecorderMatchesFresh(t *testing.T) {
	const n, seeds = 8, 200
	factory := crwFactory(n, core.Options{})
	for _, tc := range []struct {
		name   string
		gen    Gen
		oracle Oracle
	}{
		{"crash", Gen{T: 4, CrashProb: 0.3}, ConsensusOracle(check.BoundFPlus1)},
		{"omission", Gen{T: 2, CrashProb: 0.2, SendOmitProb: 0.2, RecvOmitProb: 0.15, MaxOmissive: 2}, ConsensusOracle(nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, oracle := newEngine(t), tc.oracle
			want := make([]walkSummary, seeds)
			for seed := range want {
				fresh := new(recorder)
				fresh.reset(int64(seed), tc.gen, n)
				want[seed] = walk(t, eng, factory, oracle, fresh, tc.gen)
			}
			reused := new(recorder)
			for seed := range want {
				reused.reset(int64(seeds+seed), tc.gen, n)
				walk(t, eng, factory, oracle, reused, tc.gen)
				reused.reset(int64(seed), tc.gen, n)
				if got := walk(t, eng, factory, oracle, reused, tc.gen); got != want[seed] {
					t.Fatalf("seed %d on a reused recorder: %+v, fresh %+v", seed, got, want[seed])
				}
			}

			// recycled runs the seed on r between two others, so the
			// recorder was just used by another seed and is reused before
			// the outcome is read: an outcome still aliasing the previous
			// seed's storage would change.
			recycled := func(r *Runner, eng harness.Engine, seed int) (walkSummary, error) {
				if _, err := r.Run(eng, factory, oracle, int64(seeds+seed), Options{Gen: tc.gen}); err != nil {
					return walkSummary{}, err
				}
				out, err := r.Run(eng, factory, oracle, int64(seed), Options{Gen: tc.gen})
				if err != nil {
					return walkSummary{}, err
				}
				got := summarize(out)
				_, err = r.Run(eng, factory, oracle, int64(2*seeds+seed), Options{Gen: tc.gen})
				return got, err
			}
			var r Runner
			for seed := range want {
				got, err := recycled(&r, eng, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[seed] {
					t.Fatalf("seed %d on a reused runner: %+v, fresh %+v", seed, got, want[seed])
				}
			}

			const workers = 4
			engs := make([]harness.Engine, workers)
			for w := range engs {
				engs[w] = newEngine(t)
			}
			var wg sync.WaitGroup
			for w := range engs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var r Runner
					for seed := w; seed < seeds; seed += workers {
						if got, err := recycled(&r, engs[w], seed); err != nil || got != want[seed] {
							t.Errorf("worker %d, seed %d on its runner: %+v (%v), fresh %+v", w, seed, got, err, want[seed])
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// mapReplayer is the map-backed replayer Script.Adversary used to build,
// kept as the reference for the slice replayer.
type mapReplayer struct {
	crashByProc map[int]Event
	sendOmit    map[[2]int]Event
	recvOmit    map[[2]int]Event
}

func mapAdversary(s Script) sim.Adversary {
	r := &mapReplayer{
		crashByProc: map[int]Event{},
		sendOmit:    map[[2]int]Event{},
		recvOmit:    map[[2]int]Event{},
	}
	for _, e := range s.Events {
		switch e.Kind {
		case EventSendOmit:
			r.sendOmit[[2]int{e.Proc, e.Round}] = e
		case EventRecvOmit:
			r.recvOmit[[2]int{e.Proc, e.Round}] = e
		default:
			r.crashByProc[e.Proc] = e
		}
	}
	if len(r.sendOmit) == 0 && len(r.recvOmit) == 0 {
		return r
	}
	return omittingMapReplayer{r}
}

func (r *mapReplayer) Crashes(p sim.ProcID, rd sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	e, ok := r.crashByProc[int(p)]
	if !ok || e.Round != int(rd) {
		return false, sim.CrashOutcome{}
	}
	mask := make([]bool, len(plan.Data))
	full := true
	for i := range mask {
		if i < len(e.Data) && e.Data[i] {
			mask[i] = true
		} else {
			full = false
		}
	}
	ctrl := e.Ctrl
	if ctrl > len(plan.Control) {
		ctrl = len(plan.Control)
	}
	if !full {
		ctrl = 0
	}
	return true, sim.CrashOutcome{DataDelivered: mask, CtrlPrefix: ctrl}
}

type omittingMapReplayer struct{ *mapReplayer }

func (r omittingMapReplayer) Omits(p sim.ProcID, rd sim.Round, plan sim.SendPlan) sim.Omission {
	var om sim.Omission
	if e, ok := r.sendOmit[[2]int{int(p), int(rd)}]; ok {
		om.Data = deliveredMask(e.Data, len(plan.Data))
		om.Ctrl = deliveredMask(e.CtrlMask, len(plan.Control))
	}
	if e, ok := r.recvOmit[[2]int{int(p), int(rd)}]; ok {
		om.Recv = append([]bool(nil), e.From...)
	}
	return om
}

// deliveredMask pads a positional delivered-mask to length k, its missing
// positions delivered: the rule every omission spec layer shares.
func deliveredMask(mask []bool, k int) []bool {
	out := make([]bool, k)
	for i := range out {
		out[i] = i >= len(mask) || mask[i]
	}
	return out
}

// randomMask returns a mask of length k with each position true with
// probability 1/2.
func randomMask(rng *rand.Rand, k int) []bool {
	m := make([]bool, k)
	for i := range m {
		m[i] = rng.Intn(2) == 1
	}
	return m
}

// randomScript draws a valid script over n processes and the given rounds:
// each process crashes with probability 0.3 and may omit (send, receive or
// both) in any round before its crash round.
func randomScript(rng *rand.Rand, n, rounds int) Script {
	var s Script
	for p := 1; p <= n; p++ {
		crashRound := rounds + 1
		if rng.Float64() < 0.3 {
			crashRound = 1 + rng.Intn(rounds)
			e := Event{Proc: p, Round: crashRound, Data: randomMask(rng, rng.Intn(n+1))}
			if len(e.Data) > 0 && !dropsAny(e.Data) {
				e.Ctrl = rng.Intn(n + 1)
			}
			s.Events = append(s.Events, e)
		}
		for r := 1; r < crashRound; r++ {
			if rng.Float64() < 0.15 {
				k := 1 + rng.Intn(n)
				e := Event{Kind: EventSendOmit, Proc: p, Round: r,
					Data: randomMask(rng, k), CtrlMask: randomMask(rng, rng.Intn(n+1))}
				e.Data[rng.Intn(k)] = false
				s.Events = append(s.Events, e)
			}
			if rng.Float64() < 0.1 {
				e := Event{Kind: EventRecvOmit, Proc: p, Round: r, From: randomMask(rng, n)}
				e.From[rng.Intn(n)] = false
				s.Events = append(s.Events, e)
			}
		}
	}
	s.normalize()
	return s
}

// mutate returns a shrink-style candidate: a deep copy of s with one event
// removed, delayed a round, its control prefix cut, or one mask bit flipped
// — or, beyond what the shrinker does, duplicated under its own key with a
// flipped bit, which only the last-match-wins rule keeps equivalent.
func mutate(rng *rand.Rand, s Script) Script {
	c := s.clone()
	if len(c.Events) == 0 {
		return c
	}
	i := rng.Intn(len(c.Events))
	e := &c.Events[i]
	flip := func(m []bool) {
		if len(m) > 0 {
			j := rng.Intn(len(m))
			m[j] = !m[j]
		}
	}
	switch rng.Intn(6) {
	case 0:
		c.Events = append(c.Events[:i], c.Events[i+1:]...)
	case 1:
		e.Round++
	case 2:
		e.Ctrl /= 2
	case 3:
		flip(e.Data)
	case 4:
		flip(e.CtrlMask)
		flip(e.From)
	default:
		d := e.clone()
		flip(d.Data)
		flip(d.From)
		c.Events = append(c.Events, d)
	}
	return c
}

// TestReplayerOmissionMaterialization pins how a replayed omission's masks
// fit a two-data, two-control plan, and that the replay omits nothing outside
// the event's (process, round).
func TestReplayerOmissionMaterialization(t *testing.T) {
	plan := sim.SendPlan{Data: make([]sim.Outgoing, 2), Control: []sim.ProcID{3, 2}}
	for _, tc := range []struct {
		name, script string
		want         sim.Omission
	}{
		{"drop all send", "p1@r1:so:000/000", sim.Omission{Data: []bool{false, false}, Ctrl: []bool{false, false}}},
		{"positional send masks pad with delivered", "p1@r1:so:0/10", sim.Omission{Data: []bool{false, true}, Ctrl: []bool{true, false}}},
		{"oversized masks truncate", "p1@r1:so:1000/", sim.Omission{Data: []bool{true, false}, Ctrl: []bool{true, true}}},
		{"drop all recv", "p1@r1:ro:000", sim.Omission{Recv: []bool{false, false, false}}},
		{"recv mask passed through", "p1@r1:ro:10", sim.Omission{Recv: []bool{true, false}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse(tc.script)
			if err != nil {
				t.Fatal(err)
			}
			om := s.Adversary().(sim.Omitter)
			if got := om.Omits(1, 1, plan); !reflect.DeepEqual(got, tc.want) || !got.ValidFor(plan) {
				t.Errorf("got %+v (valid for the plan: %v), want %+v", got, got.ValidFor(plan), tc.want)
			}
			if !om.Omits(1, 2, plan).IsZero() || !om.Omits(2, 1, plan).IsZero() {
				t.Error("replay omitted outside the event's (process, round)")
			}
		})
	}
}

// TestPropertyReplayerMatchesMapReference replays random valid scripts and
// shrink-style candidates through the slice replayer and the map-backed
// reference: for every process (one past n included), round and plan shape
// both must crash, omit and present an Omitter identically.
func TestPropertyReplayerMatchesMapReference(t *testing.T) {
	const n, rounds = 5, 4
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomScript(rng, n, rounds)
		if err := s.validate(); err != nil {
			t.Fatalf("randomScript drew an invalid script %q: %v", s.String(), err)
		}
		for _, cand := range []Script{s, mutate(rng, s), mutate(rng, mutate(rng, s))} {
			got, ref := cand.Adversary(), mapAdversary(cand)
			gotOm, gotIsOm := got.(sim.Omitter)
			refOm, refIsOm := ref.(sim.Omitter)
			if gotIsOm != refIsOm {
				t.Errorf("script %q: Omitter %v, reference %v", cand.String(), gotIsOm, refIsOm)
				return false
			}
			for p := 1; p <= n+1; p++ {
				for r := 1; r <= rounds+2; r++ {
					plan := sim.SendPlan{
						Data:    make([]sim.Outgoing, rng.Intn(n+1)),
						Control: make([]sim.ProcID, rng.Intn(n+1)),
					}
					c1, o1 := got.Crashes(sim.ProcID(p), sim.Round(r), plan)
					c2, o2 := ref.Crashes(sim.ProcID(p), sim.Round(r), plan)
					if c1 != c2 || !reflect.DeepEqual(o1, o2) {
						t.Errorf("script %q, p%d@r%d: Crashes %v %+v, reference %v %+v", cand.String(), p, r, c1, o1, c2, o2)
						return false
					}
					if gotIsOm {
						m1 := gotOm.Omits(sim.ProcID(p), sim.Round(r), plan)
						m2 := refOm.Omits(sim.ProcID(p), sim.Round(r), plan)
						if !reflect.DeepEqual(m1, m2) {
							t.Errorf("script %q, p%d@r%d: Omits %+v, reference %+v", cand.String(), p, r, m1, m2)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// sortSliceNormalize is the sort.Slice ordering normalize used to apply.
func sortSliceNormalize(s *Script) {
	sort.Slice(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Kind < b.Kind
	})
}

// TestNormalizeMatchesSortSlice shuffles random scripts — some with a
// duplicated key — and requires normalize to produce sort.Slice's order,
// without allocating.
func TestNormalizeMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s := randomScript(rng, 6, 5)
		if i%4 == 0 {
			s = mutate(rng, s)
		}
		rng.Shuffle(len(s.Events), func(a, b int) { s.Events[a], s.Events[b] = s.Events[b], s.Events[a] })
		want := Script{Events: append([]Event(nil), s.Events...)}
		sortSliceNormalize(&want)
		s.normalize()
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("normalize gave %q, sort.Slice %q", s.String(), want.String())
		}
	}

	s := randomScript(rand.New(rand.NewSource(2)), 8, 6)
	perm := append([]Event(nil), s.Events...)
	rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	if len(perm) < 5 {
		t.Fatalf("only %d events to sort", len(perm))
	}
	allocs := testing.AllocsPerRun(100, func() {
		copy(s.Events, perm)
		s.normalize()
	})
	if allocs != 0 {
		t.Errorf("normalize allocates %.1f per call, want 0", allocs)
	}
}

// TestAdversaryAllocs pins Script.Adversary at one allocation — the
// replayer, which reads the events in place — for crash-only and omission
// scripts alike.
func TestAdversaryAllocs(t *testing.T) {
	for _, text := range []string{"p2@r1:101/0;p3@r2:111/2", "p1@r1:so:01/1;p2@r1:ro:0110;p3@r2:10/0"} {
		s, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		var adv sim.Adversary
		if allocs := testing.AllocsPerRun(100, func() { adv = s.Adversary() }); allocs != 1 {
			t.Errorf("Adversary(%q) allocates %.1f, want 1", text, allocs)
		}
		_ = adv
	}
}
