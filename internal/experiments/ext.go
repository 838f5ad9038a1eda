package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cfi"
	"repro/internal/core"
	"repro/internal/debloat"
	"repro/internal/invariant"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ExtDebloatRow holds one application's debloating comparison (a §8
// extension experiment, not a paper table).
type ExtDebloatRow struct {
	App            string
	Functions      int
	KeepFallback   int
	KeepOptimistic int
}

// ExtDebloatData computes the callgraph-debloating comparison for every
// application, one app per worker-pool job. Debloating is pure analysis, so
// a failure is a programming error and propagates as a panic.
func (s *Session) ExtDebloatData() []ExtDebloatRow {
	span, stop := s.Metrics.StartSpan("experiments/ext-debloat", nil)
	defer stop()
	return perApp(s, s.workers(), "experiments/ext-debloat-app", span, func(app *workload.App) ExtDebloatRow {
		rep := debloat.Compute(s.System(app, invariant.All()), "main")
		return ExtDebloatRow{
			App:            app.Name,
			Functions:      rep.Total,
			KeepFallback:   len(rep.KeepFall),
			KeepOptimistic: len(rep.KeepOpt),
		}
	}, func(app *workload.App, err error) ExtDebloatRow { panic(err) })
}

// ExtDebloat renders the debloating extension experiment.
func (s *Session) ExtDebloat() string {
	var b strings.Builder
	b.WriteString("Extension (paper §8): callgraph debloating under both memory views\n")
	t := stats.NewTable("Application", "Functions", "Fallback keeps", "Kaleidoscope keeps", "Extra removed")
	for _, r := range s.ExtDebloatData() {
		t.AddRow(r.App,
			fmt.Sprintf("%d", r.Functions),
			fmt.Sprintf("%d (%s)", r.KeepFallback, stats.Pct(float64(r.KeepFallback)/float64(r.Functions))),
			fmt.Sprintf("%d (%s)", r.KeepOptimistic, stats.Pct(float64(r.KeepOptimistic)/float64(r.Functions))),
			fmt.Sprintf("%d", r.KeepFallback-r.KeepOptimistic))
	}
	b.WriteString(t.String())
	b.WriteString("a likely-invariant violation restores access to fallback-kept code (dynamic debloating)\n")
	return b.String()
}

// ExtGradedRow summarizes graded-fallback CFI tightness per level for one
// application (§8's finer-grained fallback).
type ExtGradedRow struct {
	App    string
	Levels map[string]float64 // config name -> avg CFI targets
}

// ExtGradedData computes per-level CFI tightness, one app per worker-pool
// job. The graded ladder is the app's eight session-cached analyses; like
// all pure-analysis drivers, failures panic.
func (s *Session) ExtGradedData() []ExtGradedRow {
	span, stop := s.Metrics.StartSpan("experiments/ext-graded", nil)
	defer stop()
	return perApp(s, s.workers(), "experiments/ext-graded-app", span, func(app *workload.App) ExtGradedRow {
		g := core.AnalyzeGraded(func(cfg invariant.Config) *core.System { return s.System(app, cfg) })
		row := ExtGradedRow{App: app.Name, Levels: map[string]float64{}}
		for name, p := range g.Policies {
			row.Levels[name] = p.AvgTargets()
		}
		return row
	}, func(app *workload.App, err error) ExtGradedRow { panic(err) })
}

// ExtGraded renders the graded-fallback extension experiment: the CFI
// tightness of every degradation level between full Kaleidoscope and the
// fallback.
func (s *Session) ExtGraded() string {
	var b strings.Builder
	b.WriteString("Extension (paper §8): graded fallback — CFI tightness per degradation level\n")
	names := ConfigNames()
	t := stats.NewTable(append([]string{"Application"}, names...)...)
	for _, r := range s.ExtGradedData() {
		cells := []string{r.App}
		for _, n := range names {
			cells = append(cells, stats.F(r.Levels[n]))
		}
		t.AddRow(cells...)
	}
	b.WriteString(t.String())
	b.WriteString("one violation degrades a single policy: the system lands on an intermediate\ncolumn instead of falling all the way back to Baseline\n")
	return b.String()
}

// ExtIncremental demonstrates restore-on-violation: one PA violation
// triggers an incremental re-analysis that abandons only the PA assumption;
// the Ctx assumptions (and their precision) survive.
func ExtIncremental() string {
	var b strings.Builder
	b.WriteString("Extension (paper §8): incremental re-analysis on violation\n")
	sys, err := core.AnalyzeSource("incremental-demo", workload.IncrementalDemoSrc, invariant.All())
	if err != nil {
		return err.Error()
	}
	before := len(sys.Invariants())
	h := sys.Harden()
	fmt.Fprintf(&b, "full optimistic policy: avg %.2f CFI targets/site, %d invariants assumed\n",
		h.Optimistic.AvgTargets(), before)
	fmt.Fprintf(&b, "fallback policy:        avg %.2f CFI targets/site\n", h.Fallback.AvgTargets())

	e := sys.NewIncrementalExecution(false)
	tr := e.Run("main", []int64{1})
	if tr.Err != nil {
		fmt.Fprintf(&b, "run error: %v\n", tr.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "violating run: %d violation(s), %d incremental restore(s)\n",
		len(e.Controller.Violations), e.Controller.Restores)
	restored := e.Controller.Result()
	fmt.Fprintf(&b, "restored policy:        avg %.2f CFI targets/site, %d invariants still assumed\n",
		cfi.PolicyFrom(restored).AvgTargets(), len(restored.Invariants()))
	b.WriteString("only the violated PA assumption was abandoned; the Ctx assumptions survive,\n")
	b.WriteString("so the restored policy stays tighter than the pre-generated fallback\n")
	return b.String()
}
