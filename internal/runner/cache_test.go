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
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/pointsto"
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
// poison, hammers the same key from many goroutines, and asserts every
// outcome is either the typed injection or a fully computed system — a
// cached failure or a nil system without an error would be a contract
// violation. Runs under -race via `make race`.
func TestCacheErrorInvalidationRecomputeRace(t *testing.T) {
	app := testApp(t)
	cfg := invariant.All()
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		metrics := telemetry.New()
		// Vary the firing hit so the poison lands on different flights
		// (baseline recursion makes several computes per round).
		plan := faultinject.ExplicitAt(faultinject.CachePoison, int64(round%3+1))
		plan.SetMetrics(metrics)
		c := NewCache(metrics)
		c.SetFaults(plan)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					sys, err := c.SystemCtx(context.Background(), app, cfg)
					if err == nil && sys == nil {
						t.Error("nil system without an error")
						return
					}
					if err != nil && !isInjected(err) {
						t.Errorf("unexpected error type: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		// After the dust settles the fault has fired; the key must be
		// recomputable and cacheable.
		if _, err := c.SystemCtx(context.Background(), app, cfg); err != nil {
			t.Fatalf("round %d: key not recomputable after poison: %v", round, err)
		}
	}
}

func isInjected(err error) bool {
	var inj *faultinject.Injected
	return errors.As(err, &inj)
}

// TestCacheForget covers the eviction path used by the service layer: all
// configurations of an app disappear, other apps stay, and the key is
// recomputable afterwards.
func TestCacheForget(t *testing.T) {
	metrics := telemetry.New()
	c := NewCache(metrics)
	a, b := workload.Apps()[0], workload.Apps()[1]
	ctx := context.Background()
	if _, err := c.SystemCtx(ctx, a, invariant.All()); err != nil { // caches Baseline + Kaleidoscope
		t.Fatal(err)
	}
	if _, err := c.SystemCtx(ctx, b, invariant.Config{}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.Len())
	}
	if n := c.Forget(a.Name); n != 2 {
		t.Fatalf("Forget(%s) removed %d entries, want 2", a.Name, n)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries after Forget, want 1", c.Len())
	}
	if got := metrics.Snapshot().Counters["runner/cache/evictions"]; got != 2 {
		t.Fatalf("evictions counter = %d, want 2", got)
	}
	if _, err := c.SystemCtx(ctx, a, invariant.Config{}); err != nil {
		t.Fatalf("forgotten key not recomputable: %v", err)
	}
}

// TestCacheCompact covers the snapshot-frontend memory bound: compaction
// drops an app's solved configurations but keeps the Baseline entry, so a
// later request for a full configuration re-solves only the optimistic
// stage and shares the retained fallback.
func TestCacheCompact(t *testing.T) {
	metrics := telemetry.New()
	c := NewCache(metrics)
	a := workload.Apps()[0]
	ctx := context.Background()
	if _, err := c.SystemCtx(ctx, a, invariant.All()); err != nil { // caches Baseline + Kaleidoscope
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if n := c.Compact(a.Name, invariant.Config{}.Name()); n != 1 {
		t.Fatalf("Compact removed %d entries, want 1 (Baseline kept)", n)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries after Compact, want 1", c.Len())
	}
	if got := metrics.Snapshot().Counters["runner/cache/compactions"]; got != 1 {
		t.Fatalf("compactions counter = %d, want 1", got)
	}
	analyses := metrics.Snapshot().Counters["core/analyses"]
	if _, err := c.SystemCtx(ctx, a, invariant.All()); err != nil {
		t.Fatalf("compacted key not recomputable: %v", err)
	}
	if got := metrics.Snapshot().Counters["core/analyses"]; got != analyses+1 {
		t.Fatalf("recompute ran %d analyses, want 1 (fallback shared from the kept Baseline)", got-analyses)
	}
	if n := c.Compact("no-such-app"); n != 0 {
		t.Fatalf("Compact of unknown app removed %d entries", n)
	}
}

// TestCacheBudgetAbort asserts SetBudget turns an oversized solve into a
// typed, uncached abort: waiters see ErrSolveAborted, the entry is
// invalidated (leaving nothing for Forget to find), and lifting the budget
// lets the same key solve.
func TestCacheBudgetAbort(t *testing.T) {
	metrics := telemetry.New()
	c := NewCache(metrics)
	c.SetBudget(pointsto.Budget{MaxSteps: 1})
	app := testApp(t)
	_, err := c.SystemCtx(context.Background(), app, invariant.Config{})
	if !errors.Is(err, pointsto.ErrSolveAborted) {
		t.Fatalf("budgeted solve returned %v, want ErrSolveAborted", err)
	}
	if got := metrics.Snapshot().Counters["runner/cache/invalidations"]; got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
	if c.Len() != 0 {
		t.Fatalf("aborted entry stayed cached (%d entries)", c.Len())
	}
	// Forget on the already-invalidated app must be a no-op — the abort may
	// not leave a ghost entry for eviction accounting to find.
	if n := c.Forget(app.Name); n != 0 {
		t.Fatalf("Forget after abort removed %d entries, want 0", n)
	}
	c.SetBudget(pointsto.Budget{})
	if _, err := c.SystemCtx(context.Background(), app, invariant.Config{}); err != nil {
		t.Fatalf("unbudgeted recompute failed: %v", err)
	}
}

// TestCacheParallelBudgetAbort asserts a budget abort leaves no resumable
// half-solve behind in the cache: once the budget is lifted, the same cache
// computes a System whose results are byte-identical to a fresh cache's. The
// name dates from when it covered the parallel wave strategy, which has been
// removed.
func TestCacheParallelBudgetAbort(t *testing.T) {
	c := NewCache(nil)
	c.SetBudget(pointsto.Budget{MaxSteps: 1})
	app := testApp(t)
	ctx := context.Background()
	if _, err := c.SystemCtx(ctx, app, invariant.All()); !errors.Is(err, pointsto.ErrSolveAborted) {
		t.Fatalf("budgeted solve returned %v, want ErrSolveAborted", err)
	}
	c.SetBudget(pointsto.Budget{})
	got, err := c.SystemCtx(ctx, app, invariant.All())
	if err != nil {
		t.Fatalf("unbudgeted recompute failed: %v", err)
	}
	want, err := NewCache(nil).SystemCtx(ctx, app, invariant.All())
	if err != nil {
		t.Fatal(err)
	}
	if resultDump(got.Optimistic) != resultDump(want.Optimistic) ||
		resultDump(got.Fallback) != resultDump(want.Fallback) {
		t.Fatal("System recomputed after an abort differs from a fresh compute")
	}
}

// resultDump canonically renders the externally observable facts of a Result
// for byte comparison.
func resultDump(r *pointsto.Result) string {
	var b strings.Builder
	for _, p := range r.TopLevelPointers() {
		fmt.Fprintf(&b, "%s:%s ->", p.Fn, p.Reg)
		for _, ref := range r.PointsTo(p.Fn, p.Reg) {
			fmt.Fprintf(&b, " %s+%d", ref.Obj.Label(), ref.Slot)
		}
		b.WriteByte('\n')
	}
	for _, site := range r.ICallSites() {
		fmt.Fprintf(&b, "icall %d -> %v\n", site, r.CallTargets(site))
	}
	return b.String()
}
