package serve

// Tests of the daemon's one cache (cache.go): eviction, one analysis per
// (program, config), budget aborts and poisoned flights, plus two
// regression tests for the coherence of the FIFO with memory and disk.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/pointsto"
	"repro/internal/telemetry"
)

// newTestCache returns a memory-only cache holding up to max programs.
func newTestCache(max int, steps int64) (*cache, *telemetry.Registry) {
	metrics := telemetry.New()
	return New(Config{Metrics: metrics, MaxPrograms: max, SolveSteps: steps}).cache, metrics
}

// cacheSize reports the resident programs and their slots (running or
// solved).
func cacheSize(c *cache) (programs, slots int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.progs {
		slots += len(p.slots)
	}
	return len(c.progs), slots
}

func solveSource(t *testing.T, c *cache, src string, cfg invariant.Config) (*servedResult, error) {
	t.Helper()
	p, err := c.program(context.Background(), hashSource(src), src)
	if err != nil {
		t.Fatalf("program does not compile: %v", err)
	}
	return c.solve(context.Background(), p, cfg)
}

func mustSolve(t *testing.T, c *cache, src string, cfg invariant.Config) *servedResult {
	t.Helper()
	res, err := solveSource(t, c, src, cfg)
	if err != nil {
		t.Fatalf("solve under %s: %v", cfg.Name(), err)
	}
	return res
}

// TestCacheForget covers eviction: when a program falls out of the FIFO,
// every configuration of it goes with it, other programs stay, and the
// evicted program is recomputable afterwards. The name dates from when this
// was runner.Cache.Forget.
func TestCacheForget(t *testing.T) {
	c, metrics := newTestCache(2, 0)
	a, b := variantSource(0), variantSource(1)
	base := invariant.Config{}
	mustSolve(t, c, a, invariant.All())
	mustSolve(t, c, a, base)
	mustSolve(t, c, b, base)
	if programs, flights := cacheSize(c); programs != 2 || flights != 3 {
		t.Fatalf("cache holds %d programs / %d flights, want 2 / 3", programs, flights)
	}
	mustSolve(t, c, variantSource(2), base) // evicts a
	if programs, flights := cacheSize(c); programs != 2 || flights != 2 {
		t.Fatalf("after eviction: %d programs / %d flights, want 2 / 2", programs, flights)
	}
	if got := metrics.Counter("serve/cache/programs-evicted").Value(); got != 1 {
		t.Fatalf("serve/cache/programs-evicted = %d, want 1", got)
	}
	if c.lookup(hashSource(a), base.Name()) != nil || c.lookup(hashSource(a), invariant.All().Name()) != nil {
		t.Fatal("evicted program still answers from the cache")
	}
	if c.lookup(hashSource(b), base.Name()) == nil {
		t.Fatal("eviction dropped a program other than the oldest")
	}
	analyses := metrics.Counter("core/analyses").Value()
	mustSolve(t, c, a, base)
	if got := metrics.Counter("core/analyses").Value(); got != analyses+1 {
		t.Fatalf("evicted program re-solve ran %d analyses, want 1", got-analyses)
	}
}

// TestCacheCompact covers the cost contract: each (program, config) runs
// exactly one analysis, counted once in serve/cache/solves and deriving its
// own fallback stage, a solved configuration runs none again, and
// concurrent requests for several configurations of a new program run one
// analysis per configuration. The name dates from runner.Cache.Compact.
func TestCacheCompact(t *testing.T) {
	c, metrics := newTestCache(4, 0)
	paPWC := invariant.Config{PA: true, PWC: true}
	want := func(what string, n int64) {
		t.Helper()
		solves, analyses := metrics.Counter("serve/cache/solves").Value(), metrics.Counter("core/analyses").Value()
		if fallbacks := metrics.Snapshot().Timers["core/stage/fallback"].Count; solves != n || analyses != n || fallbacks != n {
			t.Fatalf("%s: %d solves / %d analyses / %d fallback stages, want %d each", what, solves, analyses, fallbacks, n)
		}
	}
	src := variantSource(0)
	mustSolve(t, c, src, invariant.All())
	want("first config", 1)
	mustSolve(t, c, src, paPWC)
	want("second config", 2)
	mustSolve(t, c, src, invariant.All())
	want("solved config again", 2)

	fresh := variantSource(1)
	p, err := c.program(context.Background(), hashSource(fresh), fresh)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []invariant.Config{invariant.All(), paPWC, {}}
	var wg sync.WaitGroup
	for i := 0; i < 4*len(cfgs); i++ {
		wg.Add(1)
		go func(cfg invariant.Config) {
			defer wg.Done()
			if _, err := c.solve(context.Background(), p, cfg); err != nil {
				t.Errorf("concurrent %s: %v", cfg.Name(), err)
			}
		}(cfgs[i%len(cfgs)])
	}
	wg.Wait()
	want("concurrent configs of a new program", 2+int64(len(cfgs)))
}

// TestCacheBudgetAbort asserts a budget abort is typed and uncached: the
// caller sees ErrSolveAborted, the failed flight is invalidated, and
// lifting the budget lets the same key solve.
func TestCacheBudgetAbort(t *testing.T) {
	c, metrics := newTestCache(1, 1)
	base := invariant.Config{}
	if _, err := solveSource(t, c, demoSource, base); !errors.Is(err, pointsto.ErrSolveAborted) {
		t.Fatalf("budgeted solve returned %v, want ErrSolveAborted", err)
	}
	if got := metrics.Counter("serve/cache/invalidations").Value(); got != 1 {
		t.Fatalf("serve/cache/invalidations = %d, want 1", got)
	}
	if programs, flights := cacheSize(c); programs != 1 || flights != 0 {
		t.Fatalf("after abort: %d programs / %d flights, want 1 / 0", programs, flights)
	}
	if c.lookup(hashSource(demoSource), base.Name()) != nil {
		t.Fatal("aborted solve left a snapshot")
	}
	c.budget = pointsto.Budget{}
	mustSolve(t, c, demoSource, base)
}

// TestCacheParallelBudgetAbort asserts a budget abort leaves no resumable
// half-solve behind: once the budget is lifted, the same cache produces a
// snapshot byte-identical to a fresh cache's. The name dates from when it
// covered the parallel wave strategy, which has been removed.
func TestCacheParallelBudgetAbort(t *testing.T) {
	c, _ := newTestCache(1, 1)
	if _, err := solveSource(t, c, demoSource, invariant.All()); !errors.Is(err, pointsto.ErrSolveAborted) {
		t.Fatalf("budgeted solve returned %v, want ErrSolveAborted", err)
	}
	c.budget = pointsto.Budget{}
	fresh, _ := newTestCache(1, 0)
	got, _ := json.Marshal(mustSolve(t, c, demoSource, invariant.All()).snap)
	want, _ := json.Marshal(mustSolve(t, fresh, demoSource, invariant.All()).snap)
	if string(got) != string(want) {
		t.Fatal("snapshot recomputed after an abort differs from a fresh compute")
	}
}

// TestCachePoisonedFlightUncached drives concurrent requests for one key
// into a cache whose first analysis is poisoned: every failure is the typed
// injection, the failed flights are invalidated, and the key then solves
// and stays cached.
func TestCachePoisonedFlightUncached(t *testing.T) {
	metrics := telemetry.New()
	plan := faultinject.Explicit(faultinject.CachePoison)
	plan.SetMetrics(metrics)
	c := New(Config{Metrics: metrics, MaxPrograms: 1, Faults: plan}).cache
	p, err := c.program(context.Background(), hashSource(demoSource), demoSource)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	failed := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.solve(context.Background(), p, invariant.All()); err != nil {
				failed <- err
			}
		}()
	}
	wg.Wait()
	close(failed)
	n := 0
	for err := range failed {
		n++
		var inj *faultinject.Injected
		if !errors.As(err, &inj) || inj.Site != faultinject.CachePoison {
			t.Fatalf("error is not the injected poison: %v", err)
		}
	}
	if n == 0 || metrics.Counter("serve/cache/invalidations").Value() == 0 {
		t.Fatalf("poison never surfaced (%d failures)", n)
	}
	mustSolve(t, c, demoSource, invariant.All())
	if c.lookup(p.hash, invariant.All().Name()) == nil {
		t.Fatal("recovered solve was not cached")
	}
}

// TestMalformedSubmissionKeepsSolvedProgram: a submission that does not
// compile must not enter the FIFO, so it can neither evict a solved program
// nor delete that program's disk record.
func TestMalformedSubmissionKeepsSolvedProgram(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir, MaxPrograms: 1})
	waitWarm(t, s)
	if status, body, _ := post(t, ts, "/analyze", map[string]any{"source": demoSource}); status != http.StatusOK {
		t.Fatalf("solve: %d %v", status, body)
	}
	status, body, _ := post(t, ts, "/analyze", map[string]any{"source": "int main( { return ; }"})
	if status != http.StatusBadRequest || body["kind"] != "validation" {
		t.Fatalf("malformed program: %d %v, want 400/validation", status, body)
	}
	if got := counter(s, "serve/cache/programs-evicted"); got != 0 {
		t.Fatalf("malformed submission evicted %d programs", got)
	}
	if files := recordFiles(t, dir); len(files) != 1 {
		t.Fatalf("records after malformed submission = %v, want the solved one", files)
	}
	if status, body, _ := post(t, ts, "/analyze", map[string]any{"source": demoSource}); status != http.StatusOK || body["cached"] != true {
		t.Fatalf("resubmission: %d cached=%v, want 200/true", status, body["cached"])
	}
}

// TestEvictedSolveLeavesNoOrphans: a solve that finishes after its program
// was evicted answers its own request but installs and persists nothing, so
// the program is not served from the cache again and no record of it stays
// on disk.
func TestEvictedSolveLeavesNoOrphans(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir, MaxPrograms: 1, MaxInflight: 2})
	waitWarm(t, s)
	holding, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	s.testHoldSolve = func() { // holds the first request only
		if held.CompareAndSwap(false, true) {
			close(holding)
			<-release
		}
	}
	p, q := variantSource(0), variantSource(1)
	pReq, _ := json.Marshal(map[string]any{"source": p, "config": "all"})
	pDone := make(chan map[string]any, 1)
	go func() {
		out := map[string]any{}
		if resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(pReq)); err == nil {
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			out["status"] = resp.StatusCode
		}
		pDone <- out
	}()
	<-holding
	status, qBody, _ := post(t, ts, "/analyze", map[string]any{"source": q, "config": "all"})
	if status != http.StatusOK {
		t.Fatalf("solve Q: %d %v", status, qBody)
	}
	close(release)
	if r := <-pDone; r["status"] != http.StatusOK || r["cached"] != false {
		t.Fatalf("evicted program's own request: %v, want status 200 cached=false", r)
	}
	files := recordFiles(t, dir)
	want := qBody["program"].(string) + "." + qBody["config"].(string) + ".rec"
	if len(files) != 1 || filepath.Base(files[0]) != want {
		t.Fatalf("records = %v, want only %s", files, want)
	}
	if _, health := get(t, ts, "/healthz"); health["cached_programs"] != float64(1) {
		t.Fatalf("cached_programs = %v, want 1", health["cached_programs"])
	}
	if status, body, _ := post(t, ts, "/analyze", map[string]any{"source": q, "config": "all"}); status != http.StatusOK || body["cached"] != true {
		t.Fatalf("resident Q: %d cached=%v, want 200/true", status, body["cached"])
	}
	analyses := counter(s, "core/analyses")
	if status, body, _ := post(t, ts, "/analyze", map[string]any{"source": p, "config": "all"}); status != http.StatusOK || body["cached"] != false {
		t.Fatalf("evicted P resubmitted: %d cached=%v, want 200/false", status, body["cached"])
	}
	if got := counter(s, "core/analyses"); got != analyses+1 {
		t.Fatalf("evicted P re-solve ran %d analyses, want 1", got-analyses)
	}
}
