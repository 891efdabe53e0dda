package harness_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus/earlystop"
	"repro/internal/consensus/floodset"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/simulate"
)

// poisoner enforces the plan-lifetime contract of sim.Process.Send from the
// sender's side: it hands out a private copy of the inner plan and, at the
// next Send, first overwrites that copy with poison — out-of-range
// destinations, nil payloads — before delegating. Whoever still reads a plan
// after its process's next Send reads garbage for the rest of the run, so a
// retained plan shows up as an engine error, a panic or a different result.
type poisoner struct {
	sim.Process
	last sim.SendPlan
}

func (p *poisoner) Send(r sim.Round) sim.SendPlan {
	for i := range p.last.Data {
		p.last.Data[i] = sim.Outgoing{To: -1}
	}
	for i := range p.last.Control {
		p.last.Control[i] = -1
	}
	plan := p.Process.Send(r)
	p.last = sim.SendPlan{
		Data:    append([]sim.Outgoing(nil), plan.Data...),
		Control: append([]sim.ProcID(nil), plan.Control...),
	}
	return p.last
}

func poisoned(procs []sim.Process) []sim.Process {
	out := make([]sim.Process, len(procs))
	for i, p := range procs {
		out[i] = &poisoner{Process: p}
	}
	return out
}

// roundPoisoner enforces the round-scoped plan lifetime of sim.Process.Send
// for a whole system: the processes of one system may share plan backing
// arrays, so a plan is valid only during its round. Every process of the
// system hands out private copies through one poisoner, and at the first
// Send of round r+1 — whichever process makes it — every copy handed out in
// rounds <= r is overwritten with poison. Whoever reads a plan past its
// round reads garbage, even the plan of a process that never sends again
// (a coordinator that decided and halted, or crashed). The mutex serializes
// the lockstep runtime's concurrent Sends.
type roundPoisoner struct {
	mu    sync.Mutex
	round sim.Round
	live  []sim.SendPlan // copies handed out in round `round`
}

// enter poisons every live copy when r opens a new round.
func (s *roundPoisoner) enter(r sim.Round) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r == s.round {
		return
	}
	for _, plan := range s.live {
		poison(plan)
	}
	s.live, s.round = s.live[:0], r
}

// hand returns a private copy of plan, registered for poisoning.
func (s *roundPoisoner) hand(plan sim.SendPlan) sim.SendPlan {
	cp := sim.SendPlan{
		Data:    append([]sim.Outgoing(nil), plan.Data...),
		Control: append([]sim.ProcID(nil), plan.Control...),
	}
	s.mu.Lock()
	s.live = append(s.live, cp)
	s.mu.Unlock()
	return cp
}

func poison(plan sim.SendPlan) {
	for i := range plan.Data {
		plan.Data[i] = sim.Outgoing{To: -1}
	}
	for i := range plan.Control {
		plan.Control[i] = -1
	}
}

// roundPoisonedProc routes one process's plans through its system's
// poisoner.
type roundPoisonedProc struct {
	sim.Process
	sys *roundPoisoner
}

func (p *roundPoisonedProc) Send(r sim.Round) sim.SendPlan {
	p.sys.enter(r)
	return p.sys.hand(p.Process.Send(r))
}

// roundPoisoned wraps one system: all its processes share one poisoner.
// Every call builds a new poisoner, so the two layers of crw-on-classic —
// whose rounds count macro and micro rounds — each get their own.
func roundPoisoned(procs []sim.Process) []sim.Process {
	sys := &roundPoisoner{}
	out := make([]sim.Process, len(procs))
	for i, p := range procs {
		out[i] = &roundPoisonedProc{Process: p, sys: sys}
	}
	return out
}

// wrapFn decorates a process set (identity or poisoned).
type wrapFn func([]sim.Process) []sim.Process

// lifetimeSystem is one protocol set the contract tests run.
type lifetimeSystem struct {
	name    string
	model   sim.Model
	horizon sim.Round
	props   []sim.Value
	build   func(wrap wrapFn) []sim.Process
}

// lifetimeSystems returns the three protocols natively, and CRW under the
// classic-model simulation — whose wrapper holds the inner plan across the
// micro rounds of one macro round, the longest any layer may keep one.
func lifetimeSystems(n, t int) []lifetimeSystem {
	props := make([]sim.Value, n)
	for i := range props {
		props[i] = sim.Value(100 + (i*5)%n) // distinct for n = 6 and 7
	}
	return []lifetimeSystem{
		{"crw", sim.ModelExtended, sim.Round(n + 2), props, func(wrap wrapFn) []sim.Process {
			return wrap(core.NewSystem(props, core.Options{}))
		}},
		{"earlystop", sim.ModelClassic, sim.Round(t + 2), props, func(wrap wrapFn) []sim.Process {
			return wrap(earlystop.NewSystem(props, t, 0))
		}},
		{"floodset", sim.ModelClassic, sim.Round(t + 2), props, func(wrap wrapFn) []sim.Process {
			return wrap(floodset.NewSystem(props, t, 0))
		}},
		{"crw-on-classic", sim.ModelClassic, simulate.MicroRounds(sim.Round(n+2), n), props, func(wrap wrapFn) []sim.Process {
			return wrap(simulate.OnClassic(wrap(core.NewSystem(props, core.Options{}))))
		}},
	}
}

func identity(procs []sim.Process) []sim.Process { return procs }

// lifetimeAdversaries are the fault schedules the contract tests run: a
// crash script with partial deliveries and scripted omissions.
func lifetimeAdversaries(t *testing.T) map[string]func() sim.Adversary {
	omissions, err := fuzz.Parse("p3@r1:so:101/;p3@r1:ro:0110;p6@r2:ro:10")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() sim.Adversary{
		"crash": func() sim.Adversary {
			return adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
				1: {Round: 1, DataMask: []bool{true, false, true, false, true, true}, CtrlPrefix: 0},
				2: {Round: 2, DeliverAllData: true, CtrlPrefix: 2},
				5: {Round: 3, DataMask: []bool{false, true}},
			})
		},
		"omission": omissions.Adversary,
	}
}

// checkLifetimes runs the lifetime checks on one engine of the kind. The
// fuzz recorder draws from one RNG in consultation order and the planted
// stale reader keeps unsynchronized state, so both need an engine that
// consults its adversary in one deterministic order.
func checkLifetimes(t *testing.T, kind harness.Kind, caps harness.Capabilities) {
	cache := harness.NewCache()
	defer cache.Close()
	eng := engine(t, cache, kind)
	// No engine, adversary or wrapper reads a plan after its process's next
	// Send.
	t.Run("plan", func(t *testing.T) { checkPoisonedMatchesBare(t, eng, poisoned) })
	// Nor after its round, which is what lets the processes of one system
	// share a plan buffer.
	t.Run("plan-round-scoped", func(t *testing.T) { checkPoisonedMatchesBare(t, eng, roundPoisoned) })
	t.Run("payload-round-scoped", func(t *testing.T) { checkPayloadRoundScoped(t, eng) })
	t.Run("payload-stale-inbox", func(t *testing.T) { checkStaleInboxCaught(t, eng) })
	t.Run("outcome-masks", func(t *testing.T) { checkOutcomeMasksReadOnly(t, eng) })
	if caps.Deterministic {
		t.Run("plan-stale-reader", func(t *testing.T) { checkStaleReaderCaught(t, eng) })
		t.Run("fuzz-recorder", func(t *testing.T) { checkFuzzRecorderPoisoned(t, eng) })
	}
}

// checkPoisonedMatchesBare runs every protocol under every lifetime
// adversary twice — bare and through the poisoning wrapper — and requires
// identical results.
func checkPoisonedMatchesBare(t *testing.T, eng harness.Engine, poison wrapFn) {
	const n, tol = 7, 3
	for _, sys := range lifetimeSystems(n, tol) {
		for advName, adv := range lifetimeAdversaries(t) {
			run := func(wrap wrapFn) (*sim.Result, error) {
				return eng.Run(harness.Job{Model: sys.model, Horizon: sys.horizon,
					Procs: sys.build(wrap), Adv: adv()})
			}
			// The engine rewrites its result on the next run: keep a clone.
			want, wantErr := run(identity)
			want = want.Clone()
			got, gotErr := run(poison)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: poisoned run differs:\n got %+v (%v)\nwant %+v (%v)",
					sys.name, advName, got, gotErr, want, wantErr)
			}
		}
	}
}

// staleReader is a planted breach of the round-scoped contract: it keeps the
// last non-empty plan of the previous round and reads it again, crashing the
// current sender whenever that stale plan names an impossible destination.
type staleReader struct {
	inner     sim.Adversary
	round     sim.Round
	cur, prev sim.SendPlan
}

func (a *staleReader) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	if r != a.round {
		a.prev, a.cur, a.round = a.cur, sim.SendPlan{}, r
	}
	if len(plan.Data) > 0 {
		a.cur = plan
	}
	if len(a.prev.Data) > 0 && a.prev.Data[0].To < 1 {
		return true, sim.NoDelivery(plan)
	}
	return a.inner.Crashes(p, r, plan)
}

// checkStaleReaderCaught is the round-scoped poisoner's self-check. p1
// coordinates round 1 and crashes silently, so it never sends again: the
// per-process poisoner never poisons its plan and misses an adversary that
// reads it in round 2, while the round-scoped poisoner poisons it at the
// first Send of round 2 and the run changes.
func checkStaleReaderCaught(t *testing.T, eng harness.Engine) {
	const n = 7
	run := func(wrap wrapFn) (*sim.Result, error) {
		adv := &staleReader{inner: adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{1: {Round: 1}})}
		return eng.Run(harness.Job{Model: sim.ModelExtended, Horizon: n + 2,
			Procs: wrap(core.NewSystem(refProposals(n), core.Options{})), Adv: adv})
	}
	// The engine rewrites its result on the next run: keep a clone.
	want, wantErr := run(identity)
	want = want.Clone()
	if wantErr != nil || want.Faults() != 1 {
		t.Fatalf("bare run: %d faults (%v), want 1", want.Faults(), wantErr)
	}
	if got, err := run(poisoned); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("per-process poisoner changed the run (%v); the self-check's premise is gone", err)
	}
	if got, err := run(roundPoisoned); err == nil && reflect.DeepEqual(got, want) {
		t.Fatal("round-scoped poisoner missed an adversary reading round 1's plan in round 2")
	}
}

// payloadKey names the payloads one sender handed out in one round.
type payloadKey struct {
	from sim.ProcID
	r    sim.Round
}

// payloadLedger enforces the round-scoped payload lifetime of
// sim.Process.Send from the receivers' side: every payload a process of one
// system hands out is rendered (String and Bits) at its Send, and every data
// message a receiver gets must still render the same at its Receive. A
// payload rewritten before its round ended — by its sender, a system-shared
// slot or anything else — shows up as a mismatch. The mutex serializes the
// lockstep runtime's concurrent calls.
type payloadLedger struct {
	mu        sync.Mutex
	sent      map[payloadKey][]string
	delivered int
	bad       []string
}

func renderPayload(p sim.Payload) string { return fmt.Sprintf("%s/%d bits", p, p.Bits()) }

func (l *payloadLedger) record(from sim.ProcID, r sim.Round, plan sim.SendPlan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := payloadKey{from, r}
	for _, o := range plan.Data {
		if s := renderPayload(o.Payload); !slices.Contains(l.sent[k], s) {
			l.sent[k] = append(l.sent[k], s)
		}
	}
}

// mismatches returns every data message of inbox that no longer renders as
// its sender handed it out in its round.
func (l *payloadLedger) mismatches(inbox []sim.Message) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var bad []string
	for _, m := range inbox {
		if m.Kind != sim.Data {
			continue
		}
		sent := l.sent[payloadKey{m.From, m.Round}]
		if got := renderPayload(m.Payload); !slices.Contains(sent, got) {
			bad = append(bad, fmt.Sprintf("p%d->p%d r%d: delivered %s, sent %v", m.From, m.To, m.Round, got, sent))
		}
	}
	return bad
}

// ledgerProc routes one process's plans and inboxes through its system's
// ledger. It hands out the inner plan unchanged, so the run is the bare one.
type ledgerProc struct {
	sim.Process
	l *payloadLedger
}

func (p *ledgerProc) Send(r sim.Round) sim.SendPlan {
	plan := p.Process.Send(r)
	p.l.record(p.ID(), r, plan)
	return plan
}

func (p *ledgerProc) Receive(r sim.Round, inbox []sim.Message) {
	bad := p.l.mismatches(inbox)
	p.l.mu.Lock()
	p.l.delivered += len(inbox)
	p.l.bad = append(p.l.bad, bad...)
	p.l.mu.Unlock()
	p.Process.Receive(r, inbox)
}

// ledgered wraps one system under a new ledger, appended to *all; the two
// layers of crw-on-classic each get their own.
func ledgered(all *[]*payloadLedger) wrapFn {
	return func(procs []sim.Process) []sim.Process {
		l := &payloadLedger{sent: map[payloadKey][]string{}}
		*all = append(*all, l)
		out := make([]sim.Process, len(procs))
		for i, p := range procs {
			out[i] = &ledgerProc{Process: p, l: l}
		}
		return out
	}
}

// checkPayloadRoundScoped: the engine delivers each payload as its sender
// handed it out, although CRW's coordinators share one system slot and
// every earlystop and floodset process rewrites its own slot each round — no
// payload is rewritten before its round ends, and no engine reads one after.
func checkPayloadRoundScoped(t *testing.T, eng harness.Engine) {
	const n, tol = 7, 3
	for _, sys := range lifetimeSystems(n, tol) {
		for advName, adv := range lifetimeAdversaries(t) {
			run := func(wrap wrapFn) (*sim.Result, error) {
				return eng.Run(harness.Job{Model: sys.model, Horizon: sys.horizon,
					Procs: sys.build(wrap), Adv: adv()})
			}
			// The engine rewrites its result on the next run: keep a clone.
			want, wantErr := run(identity)
			want = want.Clone()
			var ledgers []*payloadLedger
			got, gotErr := run(ledgered(&ledgers))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: ledgered run differs:\n got %+v (%v)\nwant %+v (%v)",
					sys.name, advName, got, gotErr, want, wantErr)
			}
			for _, l := range ledgers {
				if l.delivered == 0 {
					t.Errorf("%s/%s: a ledger saw no delivery", sys.name, advName)
				}
				for _, b := range l.bad {
					t.Errorf("%s/%s: %s", sys.name, advName, b)
				}
			}
		}
	}
}

// staleInbox is a planted breach of the round-scoped payload lifetime: it
// keeps round r's inbox and checks it against the ledger again at round
// r+1's Receive, after every sender's round-(r+1) Send.
type staleInbox struct {
	ledgerProc
	kept  []sim.Message
	stale []string
}

func (p *staleInbox) Receive(r sim.Round, inbox []sim.Message) {
	p.stale = append(p.stale, p.l.mismatches(p.kept)...)
	p.kept = slices.Clone(inbox)
	p.ledgerProc.Receive(r, inbox)
}

// checkStaleInboxCaught is the payload ledger's self-check. In a
// failure-free earlystop run every process hears from all n in round 1, sets
// its early flag and lowers its estimate, so its round-2 Send rewrites the
// slot its round-1 messages point at: an inbox kept past its round must read
// changed payloads, while the current inboxes stay clean. This proves the
// payload storage is really reused and that the ledger can fail.
func checkStaleInboxCaught(t *testing.T, eng harness.Engine) {
	const n, tol = 7, 3
	l := &payloadLedger{sent: map[payloadKey][]string{}}
	procs := earlystop.NewSystem(refProposals(n), tol, 0)
	stale := make([]*staleInbox, n)
	for i, p := range procs {
		stale[i] = &staleInbox{ledgerProc: ledgerProc{Process: p, l: l}}
		procs[i] = stale[i]
	}
	res, err := eng.Run(harness.Job{Model: sim.ModelClassic, Horizon: tol + 2, Procs: procs, Adv: adversary.None{}})
	if err != nil || res.Rounds != 2 {
		t.Fatalf("%d rounds (%v), want 2", res.Rounds, err)
	}
	if len(l.bad) != 0 {
		t.Fatalf("current inboxes changed: %v", l.bad)
	}
	changed := 0
	for _, p := range stale {
		changed += len(p.stale)
	}
	if changed != n*(n-1) {
		t.Errorf("%d of the %d kept round-1 messages read changed in round 2, want all", changed, n*(n-1))
	}
}

// maskSnapshots wraps an adversary and snapshots the delivery mask of every
// crash outcome it returns, to prove afterwards that no engine wrote into a
// mask — the masks may be shared tables or the script's own slices.
type maskSnapshots struct {
	inner sim.Adversary
	mu    sync.Mutex
	masks [][2][]bool // the handed-out mask and its snapshot
}

func (a *maskSnapshots) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	crash, out := a.inner.Crashes(p, r, plan)
	if crash {
		a.mu.Lock()
		a.masks = append(a.masks, [2][]bool{out.DataDelivered, slices.Clone(out.DataDelivered)})
		a.mu.Unlock()
	}
	return crash, out
}

// checkOutcomeMasksReadOnly runs every protocol under scripts that hit each
// mask path of adversary.CrashPlan — a full-length DataMask (handed out as a
// view of itself), a short one (padded copy), all-data and no-data delivery
// (views of the shared tables) — and the coordinator killer, and requires
// every mask to equal its snapshot after the run.
func checkOutcomeMasksReadOnly(t *testing.T, eng harness.Engine) {
	const n, tol = 7, 3
	advs := []func() sim.Adversary{
		func() sim.Adversary {
			return adversary.NewScript(map[sim.ProcID]adversary.CrashPlan{
				1: {Round: 1, DataMask: []bool{true, false, true, false, true, true, true, false}},
				2: {Round: 2, DeliverAllData: true, CtrlPrefix: 2},
				3: {Round: 3},
				5: {Round: 3, DataMask: []bool{false, true}},
			})
		},
		func() sim.Adversary { return adversary.CoordinatorKiller{F: tol, DeliverAllData: true} },
	}
	for _, sys := range lifetimeSystems(n, tol) {
		for i, adv := range advs {
			snap := &maskSnapshots{inner: adv()}
			if _, err := eng.Run(harness.Job{Model: sys.model, Horizon: sys.horizon,
				Procs: sys.build(identity), Adv: snap}); err != nil {
				t.Fatalf("%s/%d: %v", sys.name, i, err)
			}
			if len(snap.masks) == 0 {
				t.Fatalf("%s/%d: no crash outcome was handed out", sys.name, i)
			}
			for _, m := range snap.masks {
				if !slices.Equal(m[0], m[1]) {
					t.Errorf("%s/%d: the engine wrote into a crash mask: %v, handed out as %v", sys.name, i, m[0], m[1])
				}
			}
		}
	}
}

// checkFuzzRecorderPoisoned runs the per-process poisoner under the
// fuzzer's recording adversary (crashes and omissions sampled while the run
// executes, then replayed and shrunk on a violation): the recorded script,
// the verdict and the shrunk script must not depend on the poisoner.
func checkFuzzRecorderPoisoned(t *testing.T, eng harness.Engine) {
	const n, tol = 6, 3
	gen := fuzz.Gen{T: tol, SendOmitProb: 0.15, RecvOmitProb: 0.15, MaxOmissive: 2}
	oracle := fuzz.ConsensusOracle(nil)
	summary := func(o fuzz.Outcome, err error) string {
		shrunk := ""
		if o.Shrunk != nil {
			shrunk = o.Shrunk.String()
		}
		return fmt.Sprintf("script=%q err=%v shrunk=%q shrunkErr=%v execs=%d rounds=%d decide=%d f=%d om=%d fatal=%v",
			o.Script.String(), o.Err, shrunk, o.ShrunkErr, o.Executions, o.Rounds, o.MaxDecideRound, o.Faults, o.Omissive, err)
	}
	for _, sys := range lifetimeSystems(n, tol) {
		factory := func(wrap wrapFn) fuzz.Factory {
			return func() fuzz.Target {
				return fuzz.Target{Model: sys.model, Horizon: sys.horizon, Procs: sys.build(wrap), Proposals: sys.props}
			}
		}
		for seed := int64(1); seed <= 40; seed++ {
			opts := fuzz.Options{Gen: gen, Shrink: true, MaxShrinkRuns: 64}
			want := summary(fuzz.RunSeed(eng, factory(identity), oracle, seed, opts))
			got := summary(fuzz.RunSeed(eng, factory(poisoned), oracle, seed, opts))
			if got != want {
				t.Fatalf("%s seed %d: poisoned campaign differs:\n got %s\nwant %s", sys.name, seed, got, want)
			}
		}
	}
}
