// Package chaos is the differential fault harness: it replays the full
// analyze→harden→execute pipeline over the nine paper apps under a seeded
// fault plan (internal/faultinject) and classifies each app's behavior
// against a fault-free reference run. The invariant it enforces is the
// robustness contract of the whole system:
//
// under ANY fault plan, every app either
//
//	(a) produces byte-identical artifacts to the fault-free run,
//	(b) lands soundly on the fallback view (violations recorded, one switch,
//	    dynamic behavior over-approximated by the fallback analysis), or
//	(c) surfaces an explicit typed error (solver abort, worker panic/timeout,
//	    corrupt record, injected fault, cancellation)
//
// — never a silently wrong result. Anything else is classified Unsound and
// fails the harness (and CI's chaos-smoke job, and `kscope-bench -chaos`).
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/memview"
	"repro/internal/pointsto"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Outcome classifies one app's behavior under a fault plan.
type Outcome int

const (
	// Identical: artifacts byte-identical to the fault-free reference (the
	// plan's faults either never reached this app or were absorbed without
	// observable effect).
	Identical Outcome = iota
	// Fallback: a monitor fired (real or injected) and the app degraded
	// soundly — exactly one switch, all violations recorded, and every
	// dynamic fact over-approximated by the fallback analysis.
	Fallback
	// TypedError: the pipeline refused to produce a result, with a typed
	// error identifying the fault.
	TypedError
	// Unsound: anything else — the failure mode the harness exists to catch.
	Unsound
)

func (o Outcome) String() string {
	switch o {
	case Identical:
		return "identical"
	case Fallback:
		return "fallback"
	case TypedError:
		return "typed-error"
	default:
		return "UNSOUND"
	}
}

// Options configures a chaos run. The zero value picks the defaults.
type Options struct {
	Requests int                 // interpreter requests per execution (default 24)
	Runs     int                 // monitored executions per app (default 2)
	Workers  int                 // pool width of one sweep (default 4)
	Timeout  time.Duration       // per-app job timeout (default 2m)
	Metrics  *telemetry.Registry // fault + outcome counters (may be nil)
}

func (o Options) withDefaults() Options {
	if o.Requests <= 0 {
		o.Requests = 24
	}
	if o.Runs <= 0 {
		o.Runs = 2
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	return o
}

// AppResult is one app's classified behavior under the plan.
type AppResult struct {
	App     string
	Outcome Outcome
	Err     error  // the typed error for TypedError (and Unsound error cases)
	Detail  string // human-readable evidence for the classification
}

// Report is the outcome of one seeded chaos run across all apps.
type Report struct {
	Seed    int64
	Plan    string // the plan's deterministic rendering
	Fired   []faultinject.Site
	Results []AppResult
}

// Failures returns the results that violate the robustness contract.
func (r *Report) Failures() []AppResult {
	var out []AppResult
	for _, a := range r.Results {
		if a.Outcome == Unsound {
			out = append(out, a)
		}
	}
	return out
}

// Text renders the report for human consumption.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed %d: %s\n", r.Seed, r.Plan)
	if len(r.Fired) > 0 {
		parts := make([]string, len(r.Fired))
		for i, s := range r.Fired {
			parts[i] = string(s)
		}
		fmt.Fprintf(&b, "  fired: %s\n", strings.Join(parts, ", "))
	}
	for _, a := range r.Results {
		fmt.Fprintf(&b, "  %-12s %-11s", a.App, a.Outcome)
		if a.Detail != "" {
			fmt.Fprintf(&b, " %s", a.Detail)
		}
		if a.Err != nil {
			fmt.Fprintf(&b, " (%v)", a.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// appArtifact is everything observable about one app's pipeline run,
// rendered canonically for byte comparison.
type appArtifact struct {
	bytes      []byte
	switched   bool
	violations int
	unsound    []string // non-empty: dynamic facts the fallback view misses
}

// Run executes one chaos sweep under the plan derived from seed and
// classifies every app against the fault-free reference. The reference is
// recomputed here; batch callers use RunMatrix to compute it once.
func Run(seed int64, o Options) (*Report, error) {
	o = o.withDefaults()
	ref, err := reference(o)
	if err != nil {
		return nil, err
	}
	return runAgainst(seed, ref, o), nil
}

// RunMatrix executes `plans` chaos sweeps with seeds base, base+1, ... and a
// single shared fault-free reference.
func RunMatrix(base int64, plans int, o Options) ([]*Report, error) {
	o = o.withDefaults()
	ref, err := reference(o)
	if err != nil {
		return nil, err
	}
	out := make([]*Report, 0, plans)
	for i := 0; i < plans; i++ {
		out = append(out, runAgainst(base+int64(i), ref, o))
	}
	return out, nil
}

// reference computes the fault-free artifacts every plan is compared to. A
// reference failure means the harness itself is broken, not the system under
// fault — it is an error, never a classification.
func reference(o Options) ([]runner.Result[appArtifact], error) {
	ref := sweep(nil, o)
	for _, r := range ref {
		if r.Err != nil {
			return nil, fmt.Errorf("chaos: fault-free reference run of %s failed: %w", workload.Apps()[r.Index].Name, r.Err)
		}
	}
	return ref, nil
}

func runAgainst(seed int64, ref []runner.Result[appArtifact], o Options) *Report {
	plan := faultinject.NewPlan(seed)
	plan.SetMetrics(o.Metrics)
	got := sweep(plan, o)
	rep := &Report{Seed: seed, Plan: plan.String()}
	apps := workload.Apps()
	for i := range apps {
		ar := classify(ref[i].Value, got[i])
		ar.App = apps[i].Name
		o.Metrics.Counter("chaos/outcome/" + ar.Outcome.String()).Inc()
		rep.Results = append(rep.Results, ar)
	}
	rep.Fired = plan.FiredSites()
	return rep
}

// sweep runs the full pipeline for every app under one plan (nil = fault
// free), through a fresh single-flight cache and a degradation-equipped
// worker pool.
func sweep(plan *faultinject.Plan, o Options) []runner.Result[appArtifact] {
	cache := runner.NewCache(o.Metrics)
	cache.SetFaults(plan)
	apps := workload.Apps()
	return runner.Map(len(apps), o.Workers, runner.Opts{
		Trace:   runner.Trace{Metrics: o.Metrics, Label: "chaos/app"},
		Timeout: o.Timeout,
		Faults:  plan,
	}, func(i int) (appArtifact, error) {
		return runApp(cache, apps[i], plan, o)
	})
}

// runApp drives analyze→harden→execute for one app and renders the
// canonical artifact.
func runApp(cache *runner.Cache, app *workload.App, plan *faultinject.Plan, o Options) (appArtifact, error) {
	var art appArtifact
	sys, err := cache.SystemCtx(context.Background(), app, invariant.All())
	if err != nil {
		return art, err
	}
	h := sys.Harden()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "app %s\n", app.Name)
	fmt.Fprintf(&buf, "cfi optimistic avg=%.6f max=%d sites=%d\n", h.Optimistic.AvgTargets(), h.Optimistic.MaxTargets(), len(h.Optimistic.Sites))
	fmt.Fprintf(&buf, "cfi fallback   avg=%.6f max=%d sites=%d\n", h.Fallback.AvgTargets(), h.Fallback.MaxTargets(), len(h.Fallback.Sites))
	fmt.Fprintf(&buf, "invariants %d\n", len(sys.Invariants()))
	for run := 0; run < o.Runs; run++ {
		e, err := h.NewExecutionChecked(true, plan)
		if err != nil {
			return art, err
		}
		tr := e.Run("main", app.Requests(o.Requests, int64(run)+1))
		fmt.Fprintf(&buf, "run %d result=%d steps=%d err=%v\n", run, tr.Result, tr.Steps, tr.Err)
		vs := e.Switcher.Violations()
		for _, v := range vs {
			fmt.Fprintf(&buf, "  violation %s\n", v)
		}
		fmt.Fprintf(&buf, "  switched=%v checks=%d cfi-lookups=%d\n",
			e.Switcher.Switched(), e.Runtime.ChecksPerformed, e.Runtime.CFILookups)
		art.violations += len(vs)
		if e.Switcher.Switched() {
			art.switched = true
			// Soundly degraded means the fallback analysis still
			// over-approximates everything this monitored run actually did.
			for _, bad := range core.SoundnessReport(sys.Fallback, tr) {
				art.unsound = append(art.unsound, bad)
			}
		}
	}
	art.bytes = buf.Bytes()
	return art, nil
}

// classify maps one app's observed behavior to an Outcome.
func classify(ref appArtifact, got runner.Result[appArtifact]) AppResult {
	if got.Err != nil {
		if typedError(got.Err) {
			return AppResult{Outcome: TypedError, Err: got.Err}
		}
		return AppResult{Outcome: Unsound, Err: got.Err, Detail: "untyped error"}
	}
	if bytes.Equal(ref.bytes, got.Value.bytes) {
		return AppResult{Outcome: Identical}
	}
	if len(got.Value.unsound) > 0 {
		sort.Strings(got.Value.unsound)
		return AppResult{Outcome: Unsound,
			Detail: fmt.Sprintf("fallback view misses dynamic facts: %s", strings.Join(got.Value.unsound, "; "))}
	}
	if got.Value.switched && got.Value.violations > 0 {
		return AppResult{Outcome: Fallback,
			Detail: fmt.Sprintf("%d violation(s), sound on fallback", got.Value.violations)}
	}
	return AppResult{Outcome: Unsound, Detail: "artifacts diverged without a switch or an error"}
}

// typedError reports whether err belongs to the explicit degradation
// taxonomy: every legitimate failure path in the pipeline produces one of
// these.
func typedError(err error) bool {
	var pe *runner.PanicError
	var te *runner.TimeoutError
	var cre *memview.CorruptRecordError
	var inj *faultinject.Injected
	return errors.Is(err, pointsto.ErrSolveAborted) ||
		errors.As(err, &pe) ||
		errors.As(err, &te) ||
		errors.As(err, &cre) ||
		errors.As(err, &inj) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
