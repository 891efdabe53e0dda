package smr

// reference_batching_test.go keeps the service loop as it was before the
// pending queue replaced the arrival heap: every open-loop arrival due by a
// launch is pushed into a (t, id) min-heap, the batch pops at most
// BatchLimit of them, and a latency is appended per popped command at
// commit. referenceServe is that loop verbatim; TestServeMatchesHeapReference
// requires Serve to reproduce its result exactly.

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/harness"
	"repro/internal/lan"
	"repro/internal/laws"
	"repro/internal/leakcheck"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/timed"
	"repro/internal/workload"
)

// refArrival is one pending command of the reference heap.
type refArrival struct {
	t  float64
	id int
}

// refHeap is the reference's min-heap of pending commands ordered by time,
// ties by command id.
type refHeap []refArrival

func (h refHeap) less(i, j int) bool {
	return h[i].t < h[j].t || (h[i].t == h[j].t && h[i].id < h[j].id)
}

func (h *refHeap) push(a refArrival) {
	*h = append(*h, a)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *refHeap) pop() refArrival {
	top := (*h)[0]
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	hh := *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && hh.less(l, small) {
			small = l
		}
		if r < n && hh.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		hh[i], hh[small] = hh[small], hh[i]
		i = small
	}
	return top
}

// leaderOf returns the replica holding the p1 role of the permutation
// fillPermutation would build, without building it.
func leaderOf(dead []bool, rotate bool) sim.ProcID {
	if rotate {
		for i, d := range dead {
			if !d {
				return sim.ProcID(i + 1)
			}
		}
	}
	return 1
}

// slotLatency derives the latency model of one slot: stateless models pass
// through; a Jitter model is re-seeded by hashing the slot index.
func slotLatency(m timed.LatencyModel, slot int) timed.LatencyModel {
	if j, ok := m.(timed.Jitter); ok {
		j.Seed = int64(rng.Mix(uint64(j.Seed) ^ uint64(slot)))
		return j
	}
	return m
}

// referenceServe is Serve with the heap batching.
func referenceServe(opts ServeOptions) (*ServeResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Protocol == "" {
		opts.Protocol = ProtocolCRW
	}
	if opts.Bits <= 0 {
		opts.Bits = 64
	}
	kind := opts.Engine
	if kind == "" {
		kind = harness.KindTimed
	}
	caps, ok := harness.Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("smr: unknown engine %q", kind)
	}
	if opts.Latency != nil && !caps.Timed {
		return nil, fmt.Errorf("smr: engine %q lacks the timed capability required by a latency model", kind)
	}

	// Round duration on the service clock: from the latency model for timed
	// engines, one unit per round otherwise.
	roundDur := 1.0
	if caps.Timed {
		lat := opts.Latency
		if lat == nil {
			lat = timed.DefaultModel()
		}
		d, delta := lat.Params()
		roundDur = float64(d)
		if opts.Protocol != ProtocolEarlyStop {
			roundDur += float64(delta)
		}
	}

	// Pending commands: open-loop sources are drained lazily, closed-loop
	// clients all become ready at time zero.
	var heap refHeap
	nextID := 0
	if opts.Clients != nil {
		for c := 0; c < opts.Clients.Clients; c++ {
			heap.push(refArrival{t: 0, id: nextID})
			nextID++
		}
	}
	nextArrival := func() float64 {
		if len(heap) > 0 {
			if opts.Arrivals != nil && opts.Arrivals.Peek() < heap[0].t {
				return opts.Arrivals.Peek()
			}
			return heap[0].t
		}
		if opts.Arrivals != nil {
			return opts.Arrivals.Peek()
		}
		return math.Inf(1)
	}
	// fill moves open-loop arrivals due by t into the heap.
	fill := func(t float64) {
		if opts.Arrivals == nil {
			return
		}
		for opts.Arrivals.Peek() <= t {
			heap.push(refArrival{t: opts.Arrivals.Pop(), id: nextID})
			nextID++
		}
	}

	res := &ServeResult{
		RoundsHist: map[int]int{},
		Crashed:    map[sim.ProcID]float64{},
		CrashSlot:  map[sim.ProcID]int{},
	}
	// One commit latency per committed command: MaxCommands, plus the final
	// batch's overshoot. A session past the cap grows the buffer as it goes.
	lat := make([]float64, 0, min(opts.MaxCommands, maxLatencyPrealloc)+min(opts.BatchLimit, maxLatencyPrealloc))
	var latMax, latSum float64

	cache := harness.NewCache()
	defer cache.Close()

	// The crash schedule in (time, id) order, walked by a cursor: the crashes
	// due at a launch apply chronologically, ties broken by replica id.
	type crash struct {
		id sim.ProcID
		t  float64
	}
	schedule := make([]crash, 0, len(opts.CrashAt))
	for id, t := range opts.CrashAt {
		schedule = append(schedule, crash{id, t})
	}
	slices.SortFunc(schedule, func(a, b crash) int { return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.id, b.id)) })
	nextCrash := 0

	// One system, one permutation and one adversary serve every slot; the
	// adversary reads dead and perm, which each slot refills in place.
	spec := protocol.Spec{Protocol: string(opts.Protocol), N: opts.N, T: opts.N - 1, Bits: opts.Bits}
	var systems protocol.Systems
	dead := make([]bool, opts.N) // by replica id - 1
	nDead := 0
	perm := make([]sim.ProcID, opts.N)
	crashes := slotAdversary{dead: dead, perm: perm}
	var adv sim.Adversary = &crashes
	var om *svcOmitter
	if opts.Omit != nil {
		faulty := make([]bool, opts.N)
		for _, p := range opts.Omit.Procs {
			faulty[p-1] = true
		}
		om = &svcOmitter{opt: opts.Omit, faulty: faulty, perm: perm, n: opts.N}
		adv = &svcAdversary{slotAdversary: crashes, om: om}
	}

	// Pending leader recoveries, in (time, id) order: resolved by the minimum
	// commit time over all instances launched at or after the crash (a
	// pipelined successor can commit before a slow multi-round predecessor).
	type pendingRec struct {
		replica sim.ProcID
		t       float64
		best    float64
	}
	var pending []pendingRec

	nextLaunch := 0.0
	committed := 0
	slot := 0
	proposals := make([]sim.Value, opts.N)
	var batch []refArrival
	for {
		if opts.MaxCommands > 0 && committed >= opts.MaxCommands {
			break
		}
		if opts.MaxSlots > 0 && slot >= opts.MaxSlots {
			break
		}
		na := nextArrival()
		if math.IsInf(na, 1) {
			break
		}
		start := math.Max(nextLaunch, na)
		if opts.Duration > 0 && start > opts.Duration {
			break
		}
		slot++

		// Crash injection: replicas whose crash time has passed are dead
		// for this and every later instance.
		leader := leaderOf(dead, opts.RotateLeader)
		for ; nextCrash < len(schedule) && schedule[nextCrash].t <= start; nextCrash++ {
			c := schedule[nextCrash]
			dead[c.id-1] = true
			nDead++
			res.Crashed[c.id] = c.t
			res.CrashSlot[c.id] = slot
			if c.id == leader {
				pending = append(pending, pendingRec{replica: c.id, t: c.t, best: math.Inf(1)})
				leader = leaderOf(dead, opts.RotateLeader)
			}
		}
		if nDead >= opts.N {
			return res, fmt.Errorf("smr: all replicas dead at slot %d (t=%g)", slot, start)
		}

		// Batch: every pending command that arrived by the launch time.
		fill(start)
		batch = batch[:0]
		for len(heap) > 0 && heap[0].t <= start {
			if opts.BatchLimit > 0 && len(batch) >= opts.BatchLimit {
				break
			}
			batch = append(batch, heap.pop())
		}

		fillPermutation(perm, dead, opts.RotateLeader)
		for i := range proposals {
			proposals[i] = Command(slot, perm[i])
		}
		procs, model, horizon := spec.Build(&systems, proposals)
		if om != nil {
			om.slot = slot
		}
		eng, err := cache.Get(kind)
		if err != nil {
			return res, fmt.Errorf("smr: slot %d: %w", slot, err)
		}
		out, err := eng.Run(harness.Job{Model: model, Horizon: horizon, Procs: procs, Adv: adv,
			Latency: slotLatency(opts.Latency, slot)})
		if err != nil {
			return res, fmt.Errorf("smr: slot %d (t=%g): %w", slot, start, err)
		}
		// The adapter audited the budget-free laws; the slot's fault budget
		// is service knowledge, audited here.
		budget := laws.Budget{Crashes: nDead}
		if opts.Omit != nil {
			budget.Omissive = len(opts.Omit.Procs)
		}
		if aerr := laws.AuditBudget(out, budget); aerr != nil {
			return res, fmt.Errorf("smr: slot %d: %w", slot, aerr)
		}
		if _, err := agreedValue(out, proposals); err != nil {
			return res, fmt.Errorf("smr: slot %d (t=%g): %w", slot, start, err)
		}

		dur := float64(out.Rounds)
		if caps.Timed {
			dur = out.SimTime
		}
		commit := start + dur
		res.Slots++
		res.TotalRounds += int(out.Rounds)
		res.RoundsHist[int(out.Rounds)]++
		res.LastCommit = commit
		res.Counters.Merge(out.Counters)
		res.Ledger.Merge(out.Ledger)
		for i, o := range out.Procs {
			if o.OmissiveRounds == 0 {
				continue
			}
			if res.Omissive == nil {
				res.Omissive = map[sim.ProcID]int{}
			}
			res.Omissive[perm[i]] += o.OmissiveRounds
		}

		for _, a := range batch {
			l := commit - a.t
			lat = append(lat, l)
			latSum += l
			if l > latMax {
				latMax = l
			}
			opts.Telemetry.Observe(l)
		}
		committed += len(batch)
		if opts.Telemetry.Enabled() {
			opts.Telemetry.Span(telemetry.SpanSlot, telemetry.TrackService,
				int32(slot), int32(len(batch)), start, commit)
			opts.Telemetry.Sample(telemetry.SeriesSlotRounds, commit, float64(out.Rounds))
			opts.Telemetry.Sample(telemetry.SeriesSlotBatch, commit, float64(len(batch)))
			if commit > 0 {
				opts.Telemetry.Sample(telemetry.SeriesThroughput, commit, float64(committed)/commit)
			}
		}
		if opts.Clients != nil {
			for _, a := range batch {
				heap.push(refArrival{t: commit + opts.Clients.ThinkGap(), id: a.id})
			}
		}
		for i := range pending {
			if pending[i].t <= start && commit < pending[i].best {
				pending[i].best = commit
			}
		}

		if opts.NoPipeline {
			nextLaunch = commit
		} else {
			nextLaunch = start + roundDur
		}
	}

	if committed == 0 {
		return res, errors.New("smr: service committed no commands (empty workload before the stop condition)")
	}
	res.Commands = committed
	var q [3]float64
	stats.Percentiles(lat, []float64{99.9, 99, 50}, q[:])
	res.Latency = LatencyStats{
		P50:  q[2],
		P99:  q[1],
		P999: q[0],
		Mean: latSum / float64(committed),
		Max:  latMax,
	}
	for _, p := range pending {
		if !math.IsInf(p.best, 1) {
			res.Recoveries = append(res.Recoveries, Recovery{Replica: p.replica, CrashTime: p.t, Commit: p.best})
		}
	}
	stats := cache.Stats()
	res.EnginesBuilt, res.EngineReuses = stats.Built, stats.ReuseHits

	// Cross-slot conservation: the aggregated ledger must still account for
	// every transmitted message of the whole stream.
	if got, want := res.Ledger.SinkData(), res.Counters.DataMsgs; got != want {
		return res, &laws.Violation{Law: laws.LawConservationData,
			Detail: fmt.Sprintf("service aggregate: %d data messages transmitted, sinks account for %d", want, got)}
	}
	if got, want := res.Ledger.SinkCtrl(), res.Counters.CtrlMsgs; got != want {
		return res, &laws.Violation{Law: laws.LawConservationCtrl,
			Detail: fmt.Sprintf("service aggregate: %d control messages transmitted, sinks account for %d", want, got)}
	}
	return res, nil
}

// refWorkload is a case's command source, built fresh for each run: an
// open-loop schedule when sched is set, closed-loop clients otherwise.
type refWorkload struct {
	sched        workload.Schedule
	clients      int
	think        float64
	poissonThink bool
	seed         int64
}

func (w refWorkload) attach(t *testing.T, o *ServeOptions) {
	t.Helper()
	var err error
	if w.sched != nil {
		o.Arrivals, err = workload.NewOpen(w.sched, w.seed)
	} else {
		o.Clients, err = workload.NewClosed(w.clients, w.think, w.poissonThink, w.seed)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// refCase is one configuration the reference comparison runs.
type refCase struct {
	name string
	wl   refWorkload
	opts ServeOptions
}

// refCases are the configurations the pending queue must batch exactly as
// the heap did: every workload kind, every stop condition, BatchLimit 0, 1
// and 32, and the fault, launch and engine options that move launch times.
var refCases = []refCase{
	{"poisson/max-commands/batch32", refWorkload{sched: workload.Poisson{Rate: 20}, seed: 1},
		ServeOptions{N: 6, MaxCommands: 2000, BatchLimit: 32}},
	{"poisson/overload/batch1", refWorkload{sched: workload.Poisson{Rate: 40}, seed: 2},
		ServeOptions{N: 4, MaxCommands: 300, BatchLimit: 1}},
	{"poisson/max-commands/batch0", refWorkload{sched: workload.Poisson{Rate: 50}, seed: 3},
		ServeOptions{N: 5, MaxCommands: 1001}},
	{"fixed/duration/batch0", refWorkload{sched: workload.Fixed{Rate: 3}, seed: 4},
		ServeOptions{N: 4, Duration: 200}},
	{"fixed/max-slots/batch1", refWorkload{sched: workload.Fixed{Rate: 7}, seed: 5},
		ServeOptions{N: 4, MaxSlots: 150, BatchLimit: 1}},
	{"bursty/max-slots/batch32", refWorkload{sched: workload.Bursty(2, 80, 20, 5), seed: 6},
		ServeOptions{N: 6, MaxSlots: 400, BatchLimit: 32}},
	{"bursty/duration/batch1", refWorkload{sched: workload.Bursty(0.5, 20, 10, 3), seed: 7},
		ServeOptions{N: 4, Duration: 150, BatchLimit: 1}},
	{"closed/no-think/batch32", refWorkload{clients: 40, seed: 8},
		ServeOptions{N: 6, MaxCommands: 1500, BatchLimit: 32}},
	{"closed/poisson-think/batch1", refWorkload{clients: 5, think: 2, poissonThink: true, seed: 9},
		ServeOptions{N: 4, MaxSlots: 200, BatchLimit: 1}},
	{"closed/fixed-think/duration/batch0", refWorkload{clients: 7, think: 1.5, seed: 10},
		ServeOptions{N: 4, Duration: 120}},
	{"closed/poisson-think/max-commands/batch32", refWorkload{clients: 50, think: 3, poissonThink: true, seed: 11},
		ServeOptions{N: 5, MaxCommands: 2000, BatchLimit: 32}},
	{"no-pipeline/poisson", refWorkload{sched: workload.Poisson{Rate: 4}, seed: 12},
		ServeOptions{N: 4, MaxCommands: 400, BatchLimit: 3, NoPipeline: true}},
	{"no-pipeline/closed", refWorkload{clients: 9, think: 0.5, poissonThink: true, seed: 13},
		ServeOptions{N: 4, MaxCommands: 400, BatchLimit: 4, NoPipeline: true}},
	{"crash/rotate", refWorkload{sched: workload.Poisson{Rate: 30}, seed: 14},
		ServeOptions{N: 6, MaxCommands: 3000, BatchLimit: 32, RotateLeader: true,
			CrashAt: map[sim.ProcID]float64{1: 10, 2: 10, 4: 40.5}}},
	{"crash/static/closed", refWorkload{clients: 12, think: 1, seed: 15},
		ServeOptions{N: 5, MaxSlots: 300, BatchLimit: 5, CrashAt: map[sim.ProcID]float64{1: 20, 3: 55}}},
	{"omissions", refWorkload{sched: workload.Poisson{Rate: 15}, seed: 16},
		ServeOptions{N: 6, MaxCommands: 1500, BatchLimit: 8,
			Omit: &OmitOptions{Procs: []sim.ProcID{5}, SendProb: 0.3, Seed: 17}}},
	{"round-engine/poisson", refWorkload{sched: workload.Poisson{Rate: 3}, seed: 18},
		ServeOptions{N: 8, Engine: harness.KindDeterministic, MaxCommands: 1000, BatchLimit: 2,
			CrashAt: map[sim.ProcID]float64{1: 50}, RotateLeader: true}},
	{"round-engine/closed/earlystop", refWorkload{clients: 8, seed: 19},
		ServeOptions{N: 8, Engine: harness.KindDeterministic, Protocol: ProtocolEarlyStop, MaxSlots: 100,
			CrashAt: map[sim.ProcID]float64{2: 30}}},
	{"lockstep/poisson", refWorkload{sched: workload.Poisson{Rate: 6}, seed: 20},
		ServeOptions{N: 4, Engine: harness.KindLockstep, MaxSlots: 60, BatchLimit: 4}},
	{"earlystop/fixed", refWorkload{sched: workload.Fixed{Rate: 2.5}, seed: 21},
		ServeOptions{N: 5, Protocol: ProtocolEarlyStop, MaxCommands: 500, BatchLimit: 1,
			CrashAt: map[sim.ProcID]float64{1: 30}}},
	{"jitter/poisson", refWorkload{sched: workload.Poisson{Rate: 8}, seed: 22},
		ServeOptions{N: 5, MaxCommands: 800, BatchLimit: 32,
			Latency: timed.Jitter{D: 1, Delta: 0.1, Floor: 0.6, Spread: 0.3, Seed: 23}}},
	{"1g/over-capacity", refWorkload{sched: workload.Poisson{Rate: 300e3}, seed: 24},
		ServeOptions{N: 8, MaxCommands: 5000, BatchLimit: 32, RotateLeader: true,
			Latency: timed.Profile{P: lan.Ethernet1G}, CrashAt: map[sim.ProcID]float64{1: 0.0025}}},
	// The rows below cross the executor's chunk boundaries. serve_crash's
	// shape over 13 chunks and a part of one: MaxCommands is no multiple of
	// chunkSlots·BatchLimit, and the leader dies in the second chunk.
	{"serve-crash/chunks", refWorkload{sched: workload.Poisson{Rate: 200e3}, seed: 25},
		ServeOptions{N: 8, MaxCommands: 20_011, BatchLimit: 32, RotateLeader: true,
			Latency: timed.Profile{P: lan.Ethernet1G}, CrashAt: map[sim.ProcID]float64{1: 0.01}}},
	// A leader crash after the first chunk's last launch: slot
	// chunkSlots+1 applies it, and its recovery commits in the second chunk.
	{"crash/next-chunk", refWorkload{sched: workload.Fixed{Rate: 10}, seed: 26},
		ServeOptions{N: 5, MaxSlots: 150, BatchLimit: 8, CrashAt: map[sim.ProcID]float64{1: 52.3, 3: 70}}},
	{"batch0/chunks", refWorkload{sched: workload.Poisson{Rate: 5}, seed: 27},
		ServeOptions{N: 4, MaxCommands: 1500}},
}

// TestCrashAcrossChunkBoundary keeps the crash/next-chunk row what its name
// says: the crash lands on the first slot of the second chunk.
func TestCrashAcrossChunkBoundary(t *testing.T) {
	i := slices.IndexFunc(refCases, func(c refCase) bool { return c.name == "crash/next-chunk" })
	opts := refCases[i].opts
	refCases[i].wl.attach(t, &opts)
	res, err := Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CrashSlot[1]; got != chunkSlots+1 {
		t.Fatalf("leader crash applied at slot %d, want the second chunk's first slot %d", got, chunkSlots+1)
	}
}

// TestServeErrorsMatchReference requires a failing session to end as the
// reference's does: the same error text and the same partial result, its
// crash maps included, and no executor goroutine left behind. Replicas 2
// and 3 omit sends; once replica 1, the leader, is dead, replica 2 holds
// the p1 role and an instance decides divergently, at slot 90 — in the
// middle of the second chunk — in the open loop.
func TestServeErrorsMatchReference(t *testing.T) {
	omitting := ServeOptions{N: 6, MaxSlots: 300, BatchLimit: 4, RotateLeader: true,
		Omit:    &OmitOptions{Procs: []sim.ProcID{2, 3}, SendProb: 0.5, Seed: 3},
		CrashAt: map[sim.ProcID]float64{1: 97, 4: 20}}
	for _, c := range []struct {
		name string
		wl   refWorkload
		opts ServeOptions
	}{
		{"every-replica-dead", refWorkload{sched: workload.Poisson{Rate: 5}, seed: 1},
			ServeOptions{N: 3, MaxSlots: 10, CrashAt: map[sim.ProcID]float64{1: 1, 2: 2, 3: 3}}},
		{"instance-error/open-loop", refWorkload{sched: workload.Poisson{Rate: 8}, seed: 3}, omitting},
		{"instance-error/closed-loop", refWorkload{clients: 6, think: 1, seed: 3}, omitting},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			run := func(serve func(ServeOptions) (*ServeResult, error)) (string, string) {
				opts := c.opts
				c.wl.attach(t, &opts)
				res, err := serve(opts)
				if err == nil {
					t.Fatal("the session did not fail")
				}
				j, jerr := json.Marshal(res)
				if jerr != nil {
					t.Fatal(jerr)
				}
				return err.Error(), string(j)
			}
			gotErr, got := run(Serve)
			wantErr, want := run(referenceServe)
			if gotErr != wantErr {
				t.Fatalf("error %q, want %q", gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("partial result differs from the reference:\n got %s\nwant %s", got, want)
			}
			if n := leakcheck.Settle(base, leakcheck.Timeout); n > base {
				t.Fatalf("%d goroutines after the session, %d before", n, base)
			}
		})
	}
	// The open-loop failure is mid-chunk, past the first chunk.
	opts := omitting
	refWorkload{sched: workload.Poisson{Rate: 8}, seed: 3}.attach(t, &opts)
	res, _ := Serve(opts)
	if failed := res.Slots + 1; failed <= chunkSlots || (failed-1)%chunkSlots == 0 || failed%chunkSlots == 0 {
		t.Errorf("the instance error is at slot %d, not inside a chunk after the first", failed)
	}
}

// TestExecutorRingFitsFourKiB pins the handoff's footprint: the two chunks
// a session allocates with its executor.
func TestExecutorRingFitsFourKiB(t *testing.T) {
	if size := unsafe.Sizeof(executor{}.ring); size > 4<<10 {
		t.Errorf("the executor's ring is %d B, want at most 4 KiB", size)
	}
}

// TestServeMatchesHeapReference requires the pending queue to reproduce the
// heap batching exactly on every refCases configuration: the same
// ServeResult JSON (each latency percentile, the mean and the max to the last
// bit) and, with telemetry on, the same spans, series and histogram.
func TestServeMatchesHeapReference(t *testing.T) {
	for _, c := range refCases {
		t.Run(c.name, func(t *testing.T) {
			got, gotRec := serveJSON(t, c.wl, c.opts, Serve)
			want, wantRec := serveJSON(t, c.wl, c.opts, referenceServe)
			if got != want {
				t.Fatalf("result differs from the heap reference:\n got %s\nwant %s", got, want)
			}
			if gotRec != wantRec {
				t.Fatalf("telemetry differs from the heap reference:\n got %s\nwant %s", gotRec, wantRec)
			}
		})
	}
}

// serveJSON runs one configuration through serve on a fresh workload and
// returns the result's JSON and the recorded telemetry.
func serveJSON(t *testing.T, wl refWorkload, opts ServeOptions,
	serve func(ServeOptions) (*ServeResult, error)) (result, recording string) {
	t.Helper()
	wl.attach(t, &opts)
	opts.Telemetry = telemetry.New()
	res, err := serve(opts)
	if err != nil {
		t.Fatal(err) // every case is a working session
	}
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	rec := opts.Telemetry
	return string(j), string(rec.MetricsJSON()) + string(rec.SlotTimelineJSON()) + rec.HistogramTable()
}

// overloadSlack is what an overloaded session allocates besides its one
// float64 per command: the engine, the consensus system, the executor with
// its ring, the maps and the report (measured 14.0 KB at n=8).
const overloadSlack = 32 << 10

// TestServeOverloadMemory pins an open-loop session run far past capacity:
// Poisson arrivals at 1e7 per second against the ≈280k an n=8 log on the 1g
// profile commits with BatchLimit 32. By its last launch 3.5M commands have
// arrived and 100k are committed; the session must allocate for the
// committed ones only, at most 8·(MaxCommands+BatchLimit) B plus
// overloadSlack. The heap batching pushed every arrival due by a launch and
// allocated 339 MB; its report must still be this one.
func TestServeOverloadMemory(t *testing.T) {
	wl := refWorkload{sched: workload.Poisson{Rate: 1e7}, seed: 1}
	opts := ServeOptions{N: 8, RotateLeader: true, Latency: timed.Profile{P: lan.Ethernet1G},
		MaxCommands: 100_000, BatchLimit: 32}
	session := opts
	wl.attach(t, &session)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Serve(session)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(8*(opts.MaxCommands+opts.BatchLimit) + overloadSlack)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("overloaded session allocated %d B, want <= %d (8 B per committed command + %d)", got, limit, overloadSlack)
	}
	if testing.Short() || raceEnabled {
		return // the reference allocates 339 MB
	}
	want, _ := serveJSON(t, wl, opts, referenceServe)
	if got, err := json.Marshal(res); err != nil || string(got) != want {
		t.Fatalf("overloaded session differs from the heap reference (%v):\n got %s\nwant %s", err, got, want)
	}
}

// TestClientQueueMatchesHeapReference drives the closed-loop queue and the
// reference heap through the same slots — pop a batch, commit, re-submit
// after a Poisson think time — and requires the same (time, client) pop
// sequence. A session's report sees only arrival times, so this is where a
// re-submission out of pop order, which hands the think times to the wrong
// clients, shows.
func TestClientQueueMatchesHeapReference(t *testing.T) {
	const clients = 12
	newClosed := func() *workload.Closed {
		c, err := workload.NewClosed(clients, 2, true, 5)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	q := newClientQueue(newClosed())
	var ref refHeap
	for id := 0; id < clients; id++ {
		ref.push(refArrival{t: 0, id: id})
	}
	refClients := newClosed()
	now := 0.0
	for slot := 1; slot <= 300; slot++ {
		var batch []refArrival
		for len(batch) < 1+slot%5 && len(ref) > 0 && ref[0].t <= now {
			want := ref.pop()
			batch = append(batch, want)
			if got := q.Pop(); got != want.t || q.inFlight[len(q.inFlight)-1] != want.id {
				t.Fatalf("slot %d: popped (%g, client %d), want (%g, client %d)",
					slot, got, q.inFlight[len(q.inFlight)-1], want.t, want.id)
			}
		}
		if q.Peek() != ref.peekTime() {
			t.Fatalf("slot %d: next arrival %g, want %g", slot, q.Peek(), ref.peekTime())
		}
		now += 1.1
		q.requeue(now)
		for _, a := range batch {
			ref.push(refArrival{t: now + refClients.ThinkGap(), id: a.id})
		}
	}
}

// peekTime is the reference heap's next arrival time, +Inf when empty.
func (h refHeap) peekTime() float64 {
	if len(h) == 0 {
		return math.Inf(1)
	}
	return h[0].t
}
