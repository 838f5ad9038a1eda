package runner

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// cacheKey identifies one memoized analysis.
type cacheKey struct {
	app string
	cfg string
}

// cacheEntry is a single-flight slot: the first requester (the leader)
// solves and closes done; concurrent requesters block on done and share the
// outcome, error included.
type cacheEntry struct {
	done chan struct{}
	sys  *core.System
	err  error
}

// Cache memoizes IGO analyses per (application, invariant configuration).
// One evaluation run needs the same analysis in several artifacts (Table 3,
// Figures 10–13, Tables 4–5, the §8 extension drivers); the cache makes each
// pair run exactly one analysis, which derives its own fallback
// (core.AnalyzeCtx). Safe for concurrent use from Map workers. It serves
// experiments.Session and internal/chaos; the daemon has its own cache.
//
// Failures are never cached: when a computation errors (cancelled context,
// injected fault), the waiters of that flight all receive the error,
// the entry is invalidated, and the next request recomputes from scratch
// (counter "runner/cache/invalidations").
//
// Error-entry invalidation ordering (load-bearing for concurrent waiters,
// see TestCacheErrorInvalidation*): the failing leader first removes the
// entry from the map, then closes done. Waiters of the failed flight hold a
// pointer to the dead entry, so they still observe the shared error after
// the close — invalidation is invisible to them. A request arriving after
// the removal (including one racing the close) finds no entry, becomes the
// leader of a fresh flight, and recomputes. The `c.entries[key] == e` guard
// makes the delete a no-op if such a recompute has already replaced the
// entry: a failing leader may only ever invalidate its *own* entry, never a
// newer flight's. Consequently an error is delivered to exactly the waiters
// of the flight that produced it, and at no point can a failed entry be
// observed by a request that did not join that flight.
type Cache struct {
	metrics *telemetry.Registry
	faults  *faultinject.Plan // armed fault plan; fires CachePoison per compute
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
}

// NewCache returns an empty cache. The registry (may be nil) receives
// cache hit/miss counters and is attached to every analysis the cache runs.
func NewCache(metrics *telemetry.Registry) *Cache {
	return &Cache{metrics: metrics, entries: map[cacheKey]*cacheEntry{}}
}

// SetFaults arms a fault-injection plan: the CachePoison site fires once per
// analysis computation and fails it with a typed error (which, per the
// invalidation contract, is returned to that flight's waiters and not
// cached). Must be set before the cache is used.
func (c *Cache) SetFaults(p *faultinject.Plan) { c.faults = p }

// System returns the memoized analysis of app under cfg, computing it on
// first request. It panics on computation failure; error-aware callers
// (chaos harness, cancellable drivers) use SystemCtx.
func (c *Cache) System(app *workload.App, cfg invariant.Config) *core.System {
	sys, err := c.SystemCtx(context.Background(), app, cfg)
	if err != nil {
		panic(err)
	}
	return sys
}

// SystemCtx returns the memoized analysis of app under cfg, computing it on
// first request. Concurrent requests for the same key share
// one computation; if it fails, all of them receive the error and the entry
// is invalidated so a later request retries.
func (c *Cache) SystemCtx(ctx context.Context, app *workload.App, cfg invariant.Config) (*core.System, error) {
	c.metrics.Counter("runner/cache/requests").Inc()
	key := cacheKey{app: app.Name, cfg: cfg.Name()}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()
		// Leader: compute; on error, invalidate (guarded, see the type
		// comment) and only then close done. Waiters hold e, so they read
		// the shared error regardless of the map state; future requests
		// never find the dead entry and recompute from scratch.
		c.metrics.Counter("runner/cache/misses").Inc()
		e.sys, e.err = c.compute(ctx, app, cfg)
		if e.err != nil {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
			c.metrics.Counter("runner/cache/invalidations").Inc()
		}
		close(e.done)
		return e.sys, e.err
	}
	c.mu.Unlock()
	select {
	case <-e.done:
		return e.sys, e.err
	case <-ctx.Done():
		// This waiter gives up; the flight itself keeps running under the
		// leader's context and stays cached for others.
		return nil, fmt.Errorf("runner: cache wait for %s/%s: %w", key.app, key.cfg, ctx.Err())
	}
}

// compute runs one analysis of app under cfg.
func (c *Cache) compute(ctx context.Context, app *workload.App, cfg invariant.Config) (*core.System, error) {
	if err := c.faults.Err(faultinject.CachePoison); err != nil {
		return nil, fmt.Errorf("runner: analysis of %s/%s failed: %w", app.Name, cfg.Name(), err)
	}
	m, err := app.Module()
	if err != nil {
		return nil, fmt.Errorf("runner: workload %s: %w", app.Name, err)
	}
	return core.AnalyzeCtx(ctx, m, cfg, core.AnalyzeOpts{Metrics: c.metrics, Faults: c.faults})
}

// Len returns the number of memoized entries (test/diagnostic use).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
