package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Input contract: n <= 0 returns nil without ever calling fn; workers is
// clamped into [1, n].
func TestMapInputValidation(t *testing.T) {
	var calls int64
	count := func(i int) (int, error) { atomic.AddInt64(&calls, 1); return i, nil }
	for _, n := range []int{0, -1, -100} {
		for _, workers := range []int{-4, 0, 1, 8} {
			if got := Map(n, workers, Opts{}, count); got != nil {
				t.Errorf("Map(%d, %d) = %v, want nil", n, workers, got)
			}
		}
	}
	if calls != 0 {
		t.Fatalf("fn called %d times for empty batches", calls)
	}
	// workers far above n must clamp, not spawn idle goroutines that fight
	// over three jobs; results stay index-complete either way.
	out := Map(3, 64, Opts{}, count)
	if len(out) != 3 || calls != 3 {
		t.Fatalf("Map(3, 64): len=%d calls=%d", len(out), calls)
	}
	for i, r := range out {
		if r.Index != i || r.Value != i || r.Err != nil {
			t.Fatalf("slot %d = %+v", i, r)
		}
	}
}

// A job exceeding Opts.Timeout reports a typed *TimeoutError in its own slot
// while the rest of the batch completes normally.
func TestMapOptsTimeout(t *testing.T) {
	reg := telemetry.New()
	block := make(chan struct{})
	defer close(block)
	out := Map(4, 2, Opts{Trace: Trace{Metrics: reg}, Timeout: 30 * time.Millisecond}, func(i int) (int, error) {
		if i == 1 {
			<-block // holds well past the timeout
		}
		return i * 10, nil
	})
	var te *TimeoutError
	if !errors.As(out[1].Err, &te) {
		t.Fatalf("job 1 err = %v, want *TimeoutError", out[1].Err)
	}
	if te.Index != 1 || te.Timeout != 30*time.Millisecond {
		t.Errorf("TimeoutError = %+v", te)
	}
	for _, i := range []int{0, 2, 3} {
		if out[i].Err != nil || out[i].Value != i*10 {
			t.Errorf("job %d = %+v, want clean result", i, out[i])
		}
	}
	if got := reg.Counter("runner/jobs-timed-out").Value(); got != 1 {
		t.Errorf("timed-out counter = %d, want 1", got)
	}
}

// A job that errors, panics, or times out runs exactly once: the pool
// reports the failure in its Result and never reruns the job.
func TestMapOptsFailedJobsRunOnce(t *testing.T) {
	var calls [3]int64
	block := make(chan struct{})
	defer close(block)
	out := Map(3, 1, Opts{Timeout: 30 * time.Millisecond}, func(i int) (int, error) {
		atomic.AddInt64(&calls[i], 1)
		switch i {
		case 0:
			return 0, errors.New("permanent misconfiguration")
		case 1:
			panic("corrupted state")
		default:
			<-block
			return 0, nil
		}
	})
	var pe *PanicError
	var te *TimeoutError
	if out[0].Err == nil || !errors.As(out[1].Err, &pe) || !errors.As(out[2].Err, &te) {
		t.Fatalf("errs = %v / %v / %v", out[0].Err, out[1].Err, out[2].Err)
	}
	for i := range calls {
		// Atomic load: the timed-out job's goroutine is still alive (parked
		// on block) when this assertion runs.
		if c := atomic.LoadInt64(&calls[i]); c != 1 {
			t.Errorf("job %d ran %d attempts, want exactly 1", i, c)
		}
	}
}

// An injected WorkerPanic fault surfaces as a *PanicError whose cause is the
// typed *faultinject.Injected (via Unwrap).
func TestMapOptsInjectedWorkerPanic(t *testing.T) {
	plan := faultinject.ExplicitAt(faultinject.WorkerPanic, 2)
	out := Map(3, 1, Opts{Faults: plan}, func(i int) (int, error) { return i, nil })
	failures := 0
	for _, r := range out {
		if r.Err == nil {
			continue
		}
		failures++
		var inj *faultinject.Injected
		if !errors.As(r.Err, &inj) || inj.Site != faultinject.WorkerPanic {
			t.Fatalf("job %d err = %v, want injected worker panic", r.Index, r.Err)
		}
	}
	if failures != 1 {
		t.Fatalf("%d failed jobs, want exactly 1", failures)
	}
}

// A poisoned cache computation returns a typed error to its requesters,
// invalidates the entry, and the next request recomputes successfully.
func TestCacheErrorInvalidation(t *testing.T) {
	reg := telemetry.New()
	c := NewCache(reg)
	c.SetFaults(faultinject.Explicit(faultinject.CachePoison))
	app := workload.TinyDTLS()
	_, err := c.SystemCtx(context.Background(), app, invariant.Config{})
	var inj *faultinject.Injected
	if !errors.As(err, &inj) || inj.Site != faultinject.CachePoison {
		t.Fatalf("poisoned compute err = %v, want injected cache poison", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry stayed cached: Len = %d", c.Len())
	}
	if got := reg.Counter("runner/cache/invalidations").Value(); got != 1 {
		t.Errorf("invalidations counter = %d, want 1", got)
	}
	sys, err := c.SystemCtx(context.Background(), app, invariant.Config{})
	if err != nil || sys == nil {
		t.Fatalf("retry after invalidation: sys=%v err=%v", sys, err)
	}
	if c.Len() != 1 {
		t.Errorf("Len after successful retry = %d, want 1", c.Len())
	}
}

// Concurrent requesters under a poisoned computation each get either the
// typed error (same flight as the poison) or a valid recomputed system —
// never a nil system with a nil error, and the cache ends up healthy.
func TestCacheConcurrentPoisonedFlight(t *testing.T) {
	c := NewCache(nil)
	c.SetFaults(faultinject.Explicit(faultinject.CachePoison))
	app := workload.TinyDTLS()
	var wg sync.WaitGroup
	var errs, oks int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys, err := c.SystemCtx(context.Background(), app, invariant.All())
			switch {
			case err != nil && sys == nil:
				atomic.AddInt64(&errs, 1)
			case err == nil && sys != nil:
				atomic.AddInt64(&oks, 1)
			default:
				t.Errorf("inconsistent outcome: sys=%v err=%v", sys, err)
			}
		}()
	}
	wg.Wait()
	if errs == 0 {
		t.Error("poison fired but no requester saw the error")
	}
	if sys, err := c.SystemCtx(context.Background(), app, invariant.All()); err != nil || sys == nil {
		t.Fatalf("cache unhealthy after poisoned flight: sys=%v err=%v", sys, err)
	}
}

// A waiter whose context expires abandons the flight without disturbing it.
func TestCacheWaiterContextCancellation(t *testing.T) {
	c := NewCache(nil)
	app := workload.TinyDTLS()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Warm the entry first so the cancelled waiter hits the done path...
	if _, err := c.SystemCtx(context.Background(), app, invariant.Config{}); err != nil {
		t.Fatal(err)
	}
	// ...where a closed done channel wins even against a cancelled context
	// (select prefers the ready case deterministically here because both are
	// ready and we re-check): accept either outcome, but never a hang.
	sys, err := c.SystemCtx(ctx, app, invariant.Config{})
	if err == nil && sys == nil {
		t.Fatal("nil system with nil error")
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
