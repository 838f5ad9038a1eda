package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/invariant"
	"repro/internal/pointsto"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestMapOrdering checks results land in submission order for every pool
// width, including widths above the job count.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		res := Map(20, workers, Opts{}, func(i int) (int, error) { return i * i, nil })
		if len(res) != 20 {
			t.Fatalf("workers=%d: got %d results", workers, len(res))
		}
		for i, r := range res {
			if r.Index != i || r.Value != i*i || r.Err != nil {
				t.Errorf("workers=%d: slot %d = %+v", workers, i, r)
			}
		}
	}
}

// TestMapEmpty checks n <= 0 is a no-op.
func TestMapEmpty(t *testing.T) {
	if res := Map(0, 4, Opts{}, func(i int) (int, error) { return 0, nil }); res != nil {
		t.Errorf("Map(0) = %v, want nil", res)
	}
}

// TestMapError checks job errors land on their own row only.
func TestMapError(t *testing.T) {
	sentinel := errors.New("boom")
	res := Map(5, 3, Opts{}, func(i int) (int, error) {
		if i == 2 {
			return 0, sentinel
		}
		return i, nil
	})
	for i, r := range res {
		if i == 2 {
			if !errors.Is(r.Err, sentinel) {
				t.Errorf("slot 2 err = %v, want sentinel", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Value != i {
			t.Errorf("slot %d = %+v", i, r)
		}
	}
}

// TestMapPanicRecovery checks a panicking job becomes a PanicError row with
// a stack trace while its siblings complete normally.
func TestMapPanicRecovery(t *testing.T) {
	res := Map(4, 2, Opts{}, func(i int) (string, error) {
		if i == 1 {
			panic(fmt.Sprintf("job %d exploded", i))
		}
		return "ok", nil
	})
	var pe *PanicError
	if !errors.As(res[1].Err, &pe) {
		t.Fatalf("slot 1 err = %v, want PanicError", res[1].Err)
	}
	if !strings.Contains(pe.Error(), "job 1 exploded") {
		t.Errorf("PanicError message = %q", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	for _, i := range []int{0, 2, 3} {
		if res[i].Err != nil || res[i].Value != "ok" {
			t.Errorf("slot %d = %+v", i, res[i])
		}
	}
}

// TestMapPanicCounter checks recovered panics are counted in the
// runner/jobs-panicked counter and that job latencies land in the
// runner/job-latency-ns histogram, under both the serial and pooled paths.
func TestMapPanicCounter(t *testing.T) {
	for _, workers := range []int{1, 3} {
		reg := telemetry.New()
		res := Map(6, workers, Opts{Trace: Trace{Metrics: reg, Label: "test/job"}}, func(i int) (int, error) {
			if i%3 == 0 {
				panic("kaboom")
			}
			return i, nil
		})
		if got := reg.Counter("runner/jobs-panicked").Value(); got != 2 {
			t.Errorf("workers=%d: jobs-panicked = %d, want 2", workers, got)
		}
		if got := reg.Histogram("runner/job-latency-ns").Count(); got != 6 {
			t.Errorf("workers=%d: latency observations = %d, want 6", workers, got)
		}
		var pe *PanicError
		if !errors.As(res[0].Err, &pe) || res[1].Err != nil {
			t.Errorf("workers=%d: unexpected result errors %v / %v", workers, res[0].Err, res[1].Err)
		}
		// Every job ran under a span tagged with a worker lane below the
		// pool width.
		spans := reg.Snapshot().Spans
		if len(spans) != 6 {
			t.Fatalf("workers=%d: got %d spans, want 6", workers, len(spans))
		}
		for _, sp := range spans {
			if sp.Name != "test/job" {
				t.Errorf("span name = %q, want test/job", sp.Name)
			}
			if sp.Worker < 0 || sp.Worker >= workers {
				t.Errorf("span worker = %d, want in [0,%d)", sp.Worker, workers)
			}
		}
	}
}

// TestMapUntracedInert checks the plain Map path records nothing (the Trace
// zero value is inert).
func TestMapUntracedInert(t *testing.T) {
	res := Map(3, 2, Opts{}, func(i int) (int, error) { return i, nil })
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
}

// TestMapWorkerCap checks concurrency never exceeds the requested width.
func TestMapWorkerCap(t *testing.T) {
	const workers = 3
	var cur, peak int64
	var mu sync.Mutex
	Map(30, workers, Opts{}, func(i int) (int, error) {
		n := atomic.AddInt64(&cur, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		defer atomic.AddInt64(&cur, -1)
		return i, nil
	})
	if peak > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", peak, workers)
	}
}

// TestCacheSingleFlight requests the same analysis from many goroutines and
// checks it runs exactly one analysis, everyone sharing the same *System.
func TestCacheSingleFlight(t *testing.T) {
	reg := telemetry.New()
	c := NewCache(reg)
	app := workload.ByName("tinydtls")
	res := Map(8, 8, Opts{}, func(i int) (any, error) {
		return c.System(app, invariant.All()), nil
	})
	for i := 1; i < len(res); i++ {
		if res[i].Value != res[0].Value {
			t.Fatal("concurrent requesters got different *System values")
		}
	}
	if got := c.Len(); got != 1 {
		t.Errorf("cache has %d entries, want 1", got)
	}
	if got := reg.Counter("runner/cache/misses").Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := reg.Counter("runner/cache/requests").Value(); got != 8 {
		t.Errorf("requests = %d, want 8 (one per caller)", got)
	}
	if got := reg.Counter("core/analyses").Value(); got != 1 {
		t.Errorf("core/analyses = %d, want 1 (the fallback is derived inside it)", got)
	}
}

// TestCacheFallbackMatchesBaseline checks every configuration's own
// derived fallback answers exactly like the Baseline entry's fresh solve:
// the same points-to set on every top-level pointer of either, and the same
// CFI targets at every indirect callsite.
func TestCacheFallbackMatchesBaseline(t *testing.T) {
	c := NewCache(nil)
	app := workload.ByName("tinydtls")
	base := c.System(app, invariant.Config{})
	if base.Optimistic != base.Fallback {
		t.Error("baseline optimistic view should alias its fallback")
	}
	pointsTo := func(r *pointsto.Result, p pointsto.PtrRef) string {
		if p.Reg == "" {
			return fmt.Sprint(r.ReturnPointsTo(p.Fn))
		}
		return fmt.Sprint(r.PointsTo(p.Fn, p.Reg))
	}
	for _, cfg := range invariant.Ablations() {
		if !cfg.Any() {
			continue
		}
		sys := c.System(app, cfg)
		if sys.Optimistic == sys.Fallback {
			t.Errorf("%s: invariant config should have a distinct optimistic result", cfg.Name())
		}
		for _, p := range append(base.Fallback.TopLevelPointers(), sys.Fallback.TopLevelPointers()...) {
			if got, want := pointsTo(sys.Fallback, p), pointsTo(base.Fallback, p); got != want {
				t.Errorf("%s: fallback %s:%s = %s, baseline %s", cfg.Name(), p.Fn, p.Reg, got, want)
			}
		}
		if got, want := sys.Fallback.ICallSites(), base.Fallback.ICallSites(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: fallback icall sites %v, baseline %v", cfg.Name(), got, want)
		}
		for _, site := range base.Fallback.ICallSites() {
			if got, want := sys.Fallback.CallTargets(site), base.Fallback.CallTargets(site); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: fallback icall #%d targets %v, baseline %v", cfg.Name(), site, got, want)
			}
		}
	}
}
