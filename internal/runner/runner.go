// Package runner is the concurrent batch driver behind the evaluation
// pipeline: a worker-pool Map that fans independent jobs (the app ×
// invariant-configuration matrix of §7) across GOMAXPROCS goroutines with
// deterministic result ordering and per-job panic recovery, plus a
// memoized, single-flight analysis Cache so every (application,
// configuration) pair is solved at most once per evaluation run.
//
// Determinism contract: Map assigns job i's outcome to result slot i
// regardless of completion order, and every job in this repository is a pure
// function of its inputs, so a run at -parallel 8 renders byte-identical
// tables and figures to a run at -parallel 1 (asserted by tests).
//
// Degradation contract: a job may fail by error, panic, or timeout; each
// failure lands in its own Result as a typed error (*PanicError,
// *TimeoutError) and never takes down the batch. Every job runs exactly
// once, and results stay index-ordered.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Result is one job's outcome, delivered in submission order.
type Result[T any] struct {
	Index   int
	Value   T
	Err     error // non-nil if the job returned an error, panicked, or timed out
	Elapsed time.Duration
}

// PanicError wraps a recovered job panic so one crashing workload reports an
// error row instead of killing the whole batch.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", e.Value) }

// Unwrap exposes a panic value that was itself an error (e.g. an injected
// fault), so errors.Is/As see through the recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// TimeoutError reports a job that exceeded its per-job Opts.Timeout. The
// job's goroutine may still be running; its eventual outcome is discarded.
type TimeoutError struct {
	Index   int
	Timeout time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("job %d timed out after %v", e.Index, e.Timeout)
}

// Trace is the optional observability hookup of a Map call. With a nil
// Metrics registry every field is inert. With a registry attached, each job
// records its latency into the "runner/job-latency-ns" histogram, recovered
// panics count into "runner/jobs-panicked", and every job runs under a span
// (named Label, parented to Parent) tagged with its worker lane.
type Trace struct {
	Metrics *telemetry.Registry
	Parent  *telemetry.Span // parent of each per-job span (may be nil)
	Label   string          // per-job span name; "" defaults to "runner/job"
}

// Opts configures one Map call. The zero value means no tracing, no
// timeout and no fault injection.
type Opts struct {
	Trace Trace

	// Timeout bounds each job's wall-clock time; 0 disables. A timed-out
	// job's Result carries a *TimeoutError. The job goroutine is not killed
	// (Go cannot), but its late outcome is discarded.
	Timeout time.Duration

	// Faults optionally arms fault injection: the WorkerPanic site fires at
	// job start, inside the recovered region.
	Faults *faultinject.Plan
}

// instruments are the pool's telemetry handles, resolved once per Map call,
// not per job; with no registry they are all nil (inert) instruments.
type instruments struct {
	latency  *telemetry.Histogram // runner/job-latency-ns
	panicked *telemetry.Counter   // runner/jobs-panicked
	timedOut *telemetry.Counter   // runner/jobs-timed-out
}

// Map runs fn(0..n-1) across a pool of `workers` goroutines and returns the
// results indexed by job number. Jobs are claimed from a shared atomic
// cursor, so workers stay busy regardless of per-job cost skew; a panicking
// or timed-out job is recovered into its Result (see Opts), so every job
// gets exactly one Result whatever fails around it. Tracing observes job
// execution; it never reorders or alters it.
//
// Input contract (explicit, tested): n <= 0 returns nil without calling fn
// or spawning any goroutine; workers <= 0 means GOMAXPROCS; workers > n is
// clamped to n; workers == 1 runs serially on the calling goroutine.
func Map[T any](n, workers int, o Opts, fn func(i int) (T, error)) []Result[T] {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if o.Trace.Label == "" {
		o.Trace.Label = "runner/job"
	}
	ins := instruments{
		latency:  o.Trace.Metrics.Histogram("runner/job-latency-ns"),
		panicked: o.Trace.Metrics.Counter("runner/jobs-panicked"),
		timedOut: o.Trace.Metrics.Counter("runner/jobs-timed-out"),
	}
	out := make([]Result[T], n)
	if workers == 1 {
		// Serial fast path: no goroutine or scheduling overhead, identical
		// semantics (this is the -parallel 1 reference the byte-identity
		// tests compare against).
		for i := 0; i < n; i++ {
			out[i] = runJob(i, 0, o, ins, fn)
		}
		return out
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				out[i] = runJob(i, w, o, ins, fn)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// runJob executes one job once — with panic recovery and the optional
// timeout — under its span.
func runJob[T any](i, worker int, o Opts, ins instruments, fn func(i int) (T, error)) (res Result[T]) {
	res.Index = i
	sp, finish := o.Trace.Metrics.StartSpan(o.Trace.Label, o.Trace.Parent)
	sp.SetWorker(worker)
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		ins.latency.Observe(res.Elapsed.Nanoseconds())
		finish()
	}()
	res.Value, res.Err = callOnce(i, o, ins, fn)
	return res
}

// callOnce runs the job, racing it against the per-job timeout when one is
// configured.
func callOnce[T any](i int, o Opts, ins instruments, fn func(i int) (T, error)) (T, error) {
	if o.Timeout <= 0 {
		return callRecover(i, o, ins, fn)
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := callRecover(i, o, ins, fn)
		ch <- outcome{v, err}
	}()
	timer := time.NewTimer(o.Timeout)
	defer timer.Stop()
	select {
	case oc := <-ch:
		return oc.v, oc.err
	case <-timer.C:
		ins.timedOut.Inc()
		var zero T
		return zero, &TimeoutError{Index: i, Timeout: o.Timeout}
	}
}

// callRecover runs fn(i) inside the recovered region, firing the WorkerPanic
// fault site first and counting recovered panics.
func callRecover[T any](i int, o Opts, ins instruments, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			ins.panicked.Inc()
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	if e := o.Faults.Err(faultinject.WorkerPanic); e != nil {
		panic(e)
	}
	return fn(i)
}
