package experiments

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Session is one evaluation run: sizing options, a worker-pool width, a
// shared per-(application, configuration) analysis cache, and an optional
// telemetry registry. Every table/figure driver that runs analyses hangs
// off a Session; a serial run is NewSession(opt, 1, nil).
//
// Parallelism contract: every driver fans its matrix out through
// runner.Map, which preserves submission order, and the underlying analyses
// and interpreter runs are pure functions of (app, config, seed) — so a
// parallel session renders byte-identical output to a serial one (asserted
// in internal/runner tests). The one exception is Figure 13, whose cells are
// wall-clock throughput: its measurement loops always run one at a time (on
// one goroutine) so concurrent cells cannot distort each other's timing, and
// its numbers vary run to run regardless of parallelism.
//
// Analysis jobs (pure, known-good) propagate failures as panics; execution
// jobs (Tables 4–5, Figure 13 — which interpret workloads and can
// legitimately fault) recover per-app panics into error rows, so one
// crashing workload cannot take down the batch.
type Session struct {
	Opt      Options
	Parallel int                 // worker-pool width; <= 0 means GOMAXPROCS
	Metrics  *telemetry.Registry // nil disables telemetry
	cache    *runner.Cache
}

// NewSession builds a session. parallel <= 0 selects GOMAXPROCS workers;
// metrics may be nil.
func NewSession(opt Options, parallel int, metrics *telemetry.Registry) *Session {
	return &Session{
		Opt:      opt.withDefaults(),
		Parallel: parallel,
		Metrics:  metrics,
		cache:    runner.NewCache(metrics),
	}
}

// workers returns the effective worker-pool width.
func (s *Session) workers() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// System returns the session-cached IGO analysis of app under cfg.
func (s *Session) System(app *workload.App, cfg invariant.Config) *core.System {
	return s.cache.System(app, cfg)
}

// AnalyzeAll analyzes every application under every configuration, fanning
// the 9×8 matrix across the worker pool. Cell failures are programming
// errors (analysis takes no runtime input) and propagate as panics.
func (s *Session) AnalyzeAll() []*AppData {
	span, stop := s.Metrics.StartSpan("experiments/analyze-all", nil)
	defer stop()
	apps := workload.Apps()
	cfgs := invariant.Ablations()
	type cell struct {
		sys   *core.System
		sizes []int
		cfi   []int
	}
	tr := runner.Trace{Metrics: s.Metrics, Parent: span, Label: "experiments/analyze-cell"}
	res := runner.Map(len(apps)*len(cfgs), s.workers(), runner.Opts{Trace: tr}, func(i int) (cell, error) {
		app, cfg := apps[i/len(cfgs)], cfgs[i%len(cfgs)]
		sys := s.System(app, cfg)
		return cell{
			sys:   sys,
			sizes: sys.Sizes(sys.Optimistic),
			cfi:   sys.Harden().Optimistic.TargetCounts(),
		}, nil
	})
	out := make([]*AppData, len(apps))
	for ai, app := range apps {
		d := &AppData{
			App:       app,
			Systems:   map[string]*core.System{},
			Sizes:     map[string][]int{},
			CFICounts: map[string][]int{},
		}
		for ci, cfg := range cfgs {
			r := res[ai*len(cfgs)+ci]
			if r.Err != nil {
				panic(r.Err)
			}
			name := cfg.Name()
			d.Systems[name] = r.Value.sys
			d.Sizes[name] = r.Value.sizes
			d.CFICounts[name] = r.Value.cfi
		}
		out[ai] = d
	}
	return out
}

// perApp fans one row-producing job per application across the worker pool
// with `workers` goroutines, converting recovered panics into error rows via
// errRow. Per-app job spans (named label) nest under the artifact span.
func perApp[T any](s *Session, workers int, label string, span *telemetry.Span, job func(app *workload.App) T, errRow func(app *workload.App, err error) T) []T {
	apps := workload.Apps()
	tr := runner.Trace{Metrics: s.Metrics, Parent: span, Label: label}
	res := runner.Map(len(apps), workers, runner.Opts{Trace: tr}, func(i int) (T, error) {
		return job(apps[i]), nil
	})
	rows := make([]T, len(apps))
	for i, r := range res {
		if r.Err != nil {
			rows[i] = errRow(apps[i], r.Err)
		} else {
			rows[i] = r.Value
		}
	}
	return rows
}
