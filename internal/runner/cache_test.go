package runner

// Regression tests for the Cache error-entry invalidation contract: a
// failed computation's error is shared with exactly the waiters of the
// flight that produced it, the entry is removed before done is closed, and
// requests racing the invalidation either join the failed flight (and see
// the error) or start a fresh recompute (and see its outcome) — never a
// cached failure.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// testApp returns a small compiled workload for cache tests.
func testApp(t *testing.T) *workload.App {
	t.Helper()
	app := workload.Apps()[0]
	if _, err := app.Module(); err != nil {
		t.Fatalf("workload %s does not compile: %v", app.Name, err)
	}
	return app
}

// TestCacheErrorInvalidationConcurrentWaiters drives many concurrent
// requests for one key into a cache whose first computation is poisoned.
// Exactly one flight absorbs the injected fault; every goroutine that
// joined it receives the same typed error, every goroutine that arrived
// after the invalidation gets the successful recompute, and the error is
// never served from the cache again.
func TestCacheErrorInvalidationConcurrentWaiters(t *testing.T) {
	metrics := telemetry.New()
	plan := faultinject.Explicit(faultinject.CachePoison)
	plan.SetMetrics(metrics)
	c := NewCache(metrics)
	c.SetFaults(plan)
	app := testApp(t)
	cfg := invariant.Config{}

	const goroutines = 16
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait()
			_, errs[g] = c.SystemCtx(context.Background(), app, cfg)
		}(g)
	}
	start.Done()
	done.Wait()

	var failed, succeeded int
	for g, err := range errs {
		switch {
		case err == nil:
			succeeded++
		default:
			failed++
			var inj *faultinject.Injected
			if !errors.As(err, &inj) || inj.Site != faultinject.CachePoison {
				t.Fatalf("goroutine %d: error is not the injected poison: %v", g, err)
			}
		}
	}
	if failed == 0 {
		t.Fatalf("injected CachePoison never surfaced (%d successes)", succeeded)
	}
	snap := metrics.Snapshot()
	if got := snap.Counters["runner/cache/invalidations"]; got != 1 {
		t.Fatalf("invalidations = %d, want 1 (one failed flight)", got)
	}

	// The failure must not be cached: a fresh request recomputes and
	// succeeds (the fault fires exactly once).
	sys, err := c.SystemCtx(context.Background(), app, cfg)
	if err != nil || sys == nil {
		t.Fatalf("post-invalidation request failed: %v", err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries after recovery, want 1", c.Len())
	}
	// Total computations: the poisoned flight plus exactly one recompute
	// (waiters that raced past the invalidation coalesced onto it).
	if got := metrics.Snapshot().Counters["runner/cache/misses"]; got != 2 {
		t.Fatalf("cache misses = %d, want 2 (poisoned flight + one recompute)", got)
	}
}

// TestCacheErrorInvalidationRecomputeRace stresses waiters racing a
// recompute across repeated poisoned rounds: each round arms a fresh
// poison, hammers three keys of one app from many goroutines, and asserts
// every outcome is either the typed injection or a fully computed system —
// a cached failure or a nil system without an error would be a contract
// violation. Runs under -race via `make race`.
func TestCacheErrorInvalidationRecomputeRace(t *testing.T) {
	app := testApp(t)
	cfgs := []invariant.Config{invariant.All(), {}, {PA: true, PWC: true}}
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		metrics := telemetry.New()
		// Vary the firing hit so the poison lands on different flights:
		// each key is at least one compute, so hits 1 to 3 always occur.
		plan := faultinject.ExplicitAt(faultinject.CachePoison, int64(round%3+1))
		plan.SetMetrics(metrics)
		c := NewCache(metrics)
		c.SetFaults(plan)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 3*len(cfgs); i++ {
					sys, err := c.SystemCtx(context.Background(), app, cfgs[(g+i)%len(cfgs)])
					if err == nil && sys == nil {
						t.Error("nil system without an error")
						return
					}
					if err != nil && !isInjected(err) {
						t.Errorf("unexpected error type: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if !plan.Fired(faultinject.CachePoison) {
			t.Fatalf("round %d: CachePoison at hit %d never fired", round, round%3+1)
		}
		// After the dust settles the fault has fired; every key must be
		// recomputable and cacheable.
		for _, cfg := range cfgs {
			if _, err := c.SystemCtx(context.Background(), app, cfg); err != nil {
				t.Fatalf("round %d: %s not recomputable after poison: %v", round, cfg.Name(), err)
			}
		}
		if c.Len() != len(cfgs) {
			t.Fatalf("round %d: cache holds %d entries, want %d", round, c.Len(), len(cfgs))
		}
	}
}

func isInjected(err error) bool {
	var inj *faultinject.Injected
	return errors.As(err, &inj)
}
