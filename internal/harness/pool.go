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
// work-stealing; callers that write result slots by index get output in
// deterministic input order regardless of the worker count. workers <= 0
// means GOMAXPROCS; a pool of one (or a batch of one) runs inline on the
// calling goroutine with no synchronization.
//
// The returned PoolStats aggregate engine construction and reuse over all
// workers. They are the only worker-count-dependent output: a pool of w
// workers builds up to w engines per kind touched.
func ForEach[W any](n, workers int, fn func(c *Cache, w *W, i int)) PoolStats {
	return ForEachProf(n, workers, nil, fn)
}

// ForEachProf is ForEach with an optional wall-clock profile: when prof is
// non-nil, every worker charges the time it spends between jobs — waiting on
// the atomic cursor plus pool setup/teardown, i.e. its wall time minus the
// time inside fn — to telemetry.PhaseQueueWait. The phases inside a job
// (run, audit, cross-check) are charged by the callback itself; see
// agree.SweepOptions.Profile. A nil prof takes the exact ForEach path with no
// clock reads.
func ForEachProf[W any](n, workers int, prof *telemetry.Profile, fn func(c *Cache, w *W, i int)) PoolStats {
	if n <= 0 {
		return PoolStats{}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	body := fn
	if prof.Enabled() {
		body = func(c *Cache, w *W, i int) {
			t0 := time.Now()
			fn(c, w, i)
			// Negative queue-wait is impossible: fn time is subtracted from
			// the worker's wall time measured around the whole drain loop.
			prof.Add(telemetry.PhaseQueueWait, -time.Since(t0))
		}
	}
	if workers == 1 {
		start := time.Now()
		c, w := NewCache(), new(W)
		defer c.Close()
		for i := 0; i < n; i++ {
			body(c, w, i)
		}
		if prof.Enabled() {
			prof.Add(telemetry.PhaseQueueWait, time.Since(start))
		}
		return c.Stats()
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		total PoolStats
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			c, w := NewCache(), new(W)
			defer func() {
				if prof.Enabled() {
					prof.Add(telemetry.PhaseQueueWait, time.Since(start))
				}
				mu.Lock()
				total.add(c.Stats())
				mu.Unlock()
				c.Close()
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(c, w, i)
			}
		}()
	}
	wg.Wait()
	return total
}
