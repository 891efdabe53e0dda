package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// fatalErr wraps a construction error so the atomic.Value always stores one
// concrete type.
type fatalErr struct{ err error }

// effectiveWorkers returns the worker count ExploreParallel will actually
// use for these options: the requested Workers (default GOMAXPROCS), or 1 —
// meaning the sequential explorer runs — when parallelism cannot pay for
// itself. Probe executions are warm-up work outside the budget ticket, so
// for small budgets that overhead would dominate (and sequential semantics —
// the lexicographically first Budget executions — are strictly more useful
// there); such budgets are served sequentially.
func effectiveWorkers(opts ExploreOpts) int {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && opts.Budget > 0 && opts.Budget < workers*16 {
		return 1
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// maxShardProbes bounds the number of probe executions spent splitting the
// choice space; beyond it the explorer stops subdividing and runs with the
// shards it has.
const maxShardProbes = 1024

// ExploreParallel explores the same execution space as Explore, split across
// a worker pool. The choice space is sharded by choice-script prefix: probe
// runs discover the domain of the first few choice points, the resulting
// subtrees become work units (in lexicographic order), and opts.Workers
// goroutines (default GOMAXPROCS) drain them, each with its own factory and
// engine and a Backtracker frozen at each unit's prefix.
//
// Determinism guarantee: an exploration that runs to completion — neither
// Budget exhausted nor MaxCounterexamples reached — produces exactly the
// sequential Explore result: identical Executions, MaxRounds, MaxDecideRound,
// Worst and MaxFaults, and an identical counterexample list in the same
// (lexicographic script) order, because the units partition the space and are
// merged in order. When the search stops early at MaxCounterexamples, the
// reported counterexamples are all genuine and truncated to the limit, but —
// as workers race into different subtrees — they may be a different subset
// than the sequential search would report, and Executions reflects the work
// actually done. Budget is enforced exactly via a shared atomic ticket: at
// most Budget executions are explored and counted, and exceeding the space
// returns ErrBudget just like the sequential explorer. (The sharding phase
// additionally runs a bounded number of uncounted probe executions — capped
// at Budget/8 when a budget is set; budgets too small to amortize that
// overhead are served by the sequential explorer directly.)
//
// newFactory is called once by the shard-probe phase and once by each
// worker goroutine, concurrently, and each factory it returns is called by
// that one goroutine only. The validator is called concurrently and must be
// safe for concurrent use.
func ExploreParallel(newFactory func() RunFactory, validate Validator, opts ExploreOpts) (Stats, error) {
	if opts.MaxCounterexamples <= 0 {
		opts.MaxCounterexamples = 1
	}
	workers := effectiveWorkers(opts)
	if workers == 1 {
		return Explore(newFactory, validate, opts)
	}

	units, err := shardPrefixes(newFactory(), workers, opts.Budget)
	if err != nil {
		return Stats{}, err
	}
	if len(units) == 1 {
		// No choice points worth splitting (or a single-execution space).
		return Explore(newFactory, validate, opts)
	}

	var (
		tickets   atomic.Int64 // execution admission counter (budget)
		ceCount   atomic.Int64 // counterexamples found so far, across workers
		stop      atomic.Bool  // set on budget exhaustion or CE limit
		budgetHit atomic.Bool
		nextUnit  atomic.Int64 // work-unit queue cursor
		fatal     atomic.Value // first construction error, if any (fatalErr)
	)
	results := make([]Stats, len(units))

	admit := func() error {
		if stop.Load() {
			return errDone
		}
		if opts.Budget > 0 && tickets.Add(1) > int64(opts.Budget) {
			budgetHit.Store(true)
			stop.Store(true)
			return errDone
		}
		return nil
	}
	runUnit := func(eng *sim.Engine, factory RunFactory, prefix []choice, out *Stats) {
		bt := newBacktrackerFrozen(prefix)
		err := enumerate(eng, factory, bt, admit, func(ex Execution, res *sim.Result, runErr error) error {
			out.observe(res, bt)
			if verr := validate(ex, res, runErr); verr != nil {
				out.Counterexamples = append(out.Counterexamples, keep(bt.Script(), verr, res))
				if ceCount.Add(1) >= int64(opts.MaxCounterexamples) {
					stop.Store(true)
					return errDone
				}
			}
			return nil
		})
		if err != nil {
			fatal.Store(fatalErr{err})
			stop.Store(true)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, factory := new(sim.Engine), newFactory()
			for {
				i := int(nextUnit.Add(1)) - 1
				if i >= len(units) || stop.Load() {
					return
				}
				runUnit(eng, factory, units[i], &results[i])
			}
		}()
	}
	wg.Wait()

	stats := Stats{Workers: workers}
	for _, r := range results {
		stats.merge(r)
	}
	if len(stats.Counterexamples) > opts.MaxCounterexamples {
		stats.Counterexamples = stats.Counterexamples[:opts.MaxCounterexamples]
	}
	if fe, ok := fatal.Load().(fatalErr); ok {
		return stats, fe.err
	}
	// Reaching the counterexample limit is a successful outcome and takes
	// precedence over a concurrent budget exhaustion, mirroring the
	// sequential explorer (which returns nil the moment the limit is hit).
	if ceCount.Load() >= int64(opts.MaxCounterexamples) {
		return stats, nil
	}
	if budgetHit.Load() {
		return stats, fmt.Errorf("%w (after %d executions)", ErrBudget, stats.Executions)
	}
	return stats, nil
}

// shardPrefixes splits the factory's choice space into subtree prefixes, in
// lexicographic order. It probes the space breadth-first: each probe runs the
// lexicographically-first execution under a prefix to learn the domain of the
// next choice point, and the prefix is replaced by one child per domain
// value. Expansion stops once there are comfortably more units than workers
// (for load balancing — subtree sizes are very uneven), every unit is a
// complete execution, or the probe budget is spent.
//
// Probe executions are warm-up work only: they are re-explored (and counted)
// by the worker that owns the subtree, so stats are unaffected. They do not
// consume Budget tickets; when a budget is set, the probe count is capped at
// an eighth of it so the uncounted overhead stays marginal.
func shardPrefixes(factory RunFactory, workers, budget int) ([][]choice, error) {
	probeCap := maxShardProbes
	if budget > 0 && budget/8 < probeCap {
		probeCap = budget / 8
	}
	want := workers * 8
	units := [][]choice{nil} // the root: the whole space
	leaf := []bool{false}
	probes := 0
	var eng sim.Engine // one engine, rearmed for every probe
	for len(units) < want && probes < probeCap {
		expanded := false
		for i := 0; i < len(units) && len(units) < want && probes < probeCap; i++ {
			if leaf[i] {
				continue
			}
			// The probe runs the first execution under the prefix.
			bt := newBacktrackerFrozen(units[i])
			err := enumerate(&eng, factory, bt, func() error { return nil },
				func(Execution, *sim.Result, error) error { return errDone })
			if err != nil {
				return nil, err
			}
			probes++
			script := bt.choices()
			depth := len(units[i])
			if len(script) <= depth {
				// The first execution under this prefix finishes without
				// further choice points, so the subtree is that single
				// execution: nothing to split.
				leaf[i] = true
				continue
			}
			dom := script[depth].n
			children := make([][]choice, dom)
			childLeaf := make([]bool, dom)
			for v := 0; v < dom; v++ {
				child := make([]choice, depth+1)
				copy(child, units[i])
				child[depth] = choice{picked: v, n: dom}
				children[v] = child
			}
			units = append(units[:i], append(children, units[i+1:]...)...)
			leaf = append(leaf[:i], append(childLeaf, leaf[i+1:]...)...)
			i += dom - 1
			expanded = true
		}
		if !expanded {
			break
		}
	}
	return units, nil
}
