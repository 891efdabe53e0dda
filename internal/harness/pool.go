package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// PoolStats accounts for engine construction and reuse across a Cache or a
// ForEach pool: Built counts engine instantiations, ReuseHits counts Get
// calls served by an already-cached engine. Reusable engines make ReuseHits
// cheap — that is the whole point of the cache — so the ratio is the
// observable dividend of the Reusable capability.
type PoolStats struct {
	Built     int
	ReuseHits int
}

// add folds another stats record into s.
func (s *PoolStats) add(o PoolStats) {
	s.Built += o.Built
	s.ReuseHits += o.ReuseHits
}

// Cache lazily instantiates and retains one engine per kind. A sweep worker
// owns exactly one Cache, so every job it executes on a given kind lands on
// the same Engine value and benefits from that engine's buffer reuse. Close
// the cache when done: engines backed by persistent goroutine sets (the
// lockstep runtime) are released there.
type Cache struct {
	engines map[Kind]Engine
	stats   PoolStats
}

// NewCache returns an empty engine cache.
func NewCache() *Cache { return &Cache{engines: map[Kind]Engine{}} }

// Get returns the cache's engine for kind, instantiating it on first use.
func (c *Cache) Get(kind Kind) (Engine, error) {
	if eng, ok := c.engines[kind]; ok {
		c.stats.ReuseHits++
		return eng, nil
	}
	eng, err := New(kind)
	if err != nil {
		return nil, err
	}
	c.engines[kind] = eng
	c.stats.Built++
	return eng, nil
}

// Stats returns the cache's construction/reuse account so far.
func (c *Cache) Stats() PoolStats { return c.stats }

// Close releases every cached engine that holds releasable resources (the
// optional Close method — e.g. the lockstep adapter's persistent goroutine
// set) and empties the cache. The cache remains usable; subsequent Gets
// build fresh engines.
func (c *Cache) Close() {
	for _, eng := range c.engines {
		if cl, ok := eng.(interface{ Close() }); ok {
			cl.Close()
		}
	}
	clear(c.engines)
}

// ForEach invokes fn(cache, w, i) for every i in [0, n), fanned across a
// pool of workers that each own a private Cache (closed when its worker
// drains) and a private worker state w, zero at the worker's first job and
// kept across its jobs: what a caller reuses between jobs, such as the
// systems under test, lives there.
// Indices are handed out through an atomic cursor, so scheduling is
// work-stealing, but each worker takes its indices in ascending order.
// Callers that write result slots by index get output in deterministic
// input order regardless of the worker count. workers <= 0 means
// GOMAXPROCS; a pool of one (or a batch of one) runs inline on the calling
// goroutine with no synchronization.
//
// ForEach returns once every worker has drained and closed its cache. The
// returned PoolStats aggregate engine construction and reuse over all
// workers; the returned states are the workers' own, one per worker, as
// their last jobs left them, so a caller may accumulate per worker and
// merge once instead of keeping a slot per index. Both depend on the worker
// count: a pool of w workers builds up to w engines per kind touched, and
// which indices a state saw depends on scheduling.
func ForEach[W any](n, workers int, fn func(c *Cache, w *W, i int)) (PoolStats, []W) {
	return ForEachProf(n, workers, nil, fn)
}

// ForEachProf is ForEach with an optional wall-clock profile: when prof is
// non-nil, every worker charges the time it spends between jobs — waiting on
// the atomic cursor plus pool setup/teardown, i.e. its wall time minus the
// time inside fn — to telemetry.PhaseQueueWait. The phases inside a job
// (run, audit, cross-check) are charged by the callback itself; see
// agree.SweepOptions.Profile. A nil prof takes the exact ForEach path with no
// clock reads.
func ForEachProf[W any](n, workers int, prof *telemetry.Profile, fn func(c *Cache, w *W, i int)) (PoolStats, []W) {
	if n <= 0 {
		return PoolStats{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	body := chargeQueueWait(prof, fn)
	states := make([]W, workers)
	if workers == 1 {
		start := time.Now()
		c, w := NewCache(), &states[0]
		defer c.Close()
		for i := 0; i < n; i++ {
			body(c, w, i)
		}
		if prof.Enabled() {
			prof.Add(telemetry.PhaseQueueWait, time.Since(start))
		}
		return c.Stats(), states
	}
	// One shared record, so the workers' closures capture one pointer.
	var pool struct {
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		total PoolStats
	}
	for k := range states {
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			start := time.Now()
			c, w := NewCache(), &states[k]
			defer func() {
				if prof.Enabled() {
					prof.Add(telemetry.PhaseQueueWait, time.Since(start))
				}
				pool.mu.Lock()
				pool.total.add(c.Stats())
				pool.mu.Unlock()
				c.Close()
			}()
			for {
				i := int(pool.next.Add(1)) - 1
				if i >= n {
					return
				}
				body(c, w, i)
			}
		}()
	}
	pool.wg.Wait()
	return pool.total, states
}

// chargeQueueWait returns fn, wrapped to take the time inside each job back
// off the worker's queue-wait when prof is enabled.
func chargeQueueWait[W any](prof *telemetry.Profile, fn func(c *Cache, w *W, i int)) func(c *Cache, w *W, i int) {
	if !prof.Enabled() {
		return fn
	}
	return func(c *Cache, w *W, i int) {
		t0 := time.Now()
		fn(c, w, i)
		// Negative queue-wait is impossible: fn time is subtracted from
		// the worker's wall time measured around the whole drain loop.
		prof.Add(telemetry.PhaseQueueWait, -time.Since(t0))
	}
}
