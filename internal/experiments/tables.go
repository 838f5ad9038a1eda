package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fuzzer"
	"repro/internal/invariant"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table2 renders the application inventory (paper Table 2).
func Table2() string {
	t := stats.NewTable("Application", "Description", "LoC (MiniC)")
	for _, app := range workload.Apps() {
		t.AddRow(app.Name, app.Descr, fmt.Sprintf("%d", app.LoC()))
	}
	return "Table 2: Evaluation Applications\n" + t.String()
}

// Table3Row is one application's row of Table 3.
type Table3Row struct {
	App    string
	Avg    map[string]float64 // config -> average points-to set size
	Max    map[string]int     // config -> maximum points-to set size
	Factor float64            // baseline avg / Kaleidoscope avg
}

// Table3Data computes Table 3 for all applications.
func Table3Data(data []*AppData) []Table3Row {
	var rows []Table3Row
	for _, d := range data {
		row := Table3Row{App: d.App.Name, Avg: map[string]float64{}, Max: map[string]int{}}
		for _, name := range ConfigNames() {
			row.Avg[name] = stats.Mean(d.Sizes[name])
			row.Max[name] = stats.Max(d.Sizes[name])
		}
		row.Factor = stats.Factor(row.Avg["Baseline"], row.Avg["Kaleidoscope"])
		rows = append(rows, row)
	}
	return rows
}

// Table3 renders average and maximum points-to set sizes per configuration
// (paper Table 3).
func Table3(data []*AppData) string {
	rows := Table3Data(data)
	names := ConfigNames()
	var b strings.Builder

	b.WriteString("Table 3: Average Points-to Set Size of top-level pointers\n")
	avg := stats.NewTable(append([]string{"Application"}, append(names, "Factor")...)...)
	for _, r := range rows {
		cells := []string{r.App}
		for _, n := range names {
			cells = append(cells, stats.F(r.Avg[n]))
		}
		cells = append(cells, stats.F(r.Factor))
		avg.AddRow(cells...)
	}
	b.WriteString(avg.String())

	b.WriteString("\nTable 3 (cont.): Max Points-to Set Size of top-level pointers\n")
	max := stats.NewTable(append([]string{"Application"}, append(names, "Factor")...)...)
	for _, r := range rows {
		cells := []string{r.App}
		for _, n := range names {
			cells = append(cells, fmt.Sprintf("%d", r.Max[n]))
		}
		cells = append(cells, stats.F(stats.Factor(float64(r.Max["Baseline"]), float64(r.Max["Kaleidoscope"]))))
		max.AddRow(cells...)
	}
	b.WriteString(max.String())
	return b.String()
}

// CoverageRow is one application's row of Table 4 or 5. Err is set when the
// app's driver crashed (the row renders as an error instead of numbers).
type CoverageRow struct {
	App           string
	BranchTotal   int
	BranchExec    int
	MonitorTotal  int
	MonitorExec   int
	Violations    int
	CFIViolations int
	Err           error
}

// Table4Data runs the CFI benchmark drivers and collects coverage
// (paper Table 4), one application per worker-pool job.
func (s *Session) Table4Data() []CoverageRow {
	span, stop := s.Metrics.StartSpan("experiments/table4", nil)
	defer stop()
	return perApp(s, s.workers(), "experiments/table4-app", span, func(app *workload.App) CoverageRow {
		h := s.System(app, invariant.All()).Harden()
		e := h.NewExecution(false)
		merged := e.Run("main", app.Requests(s.Opt.Requests, s.Opt.Seed))
		violations := len(e.Switcher.Violations())
		for r := 1; r < s.Opt.Runs; r++ {
			e2 := h.NewExecution(false)
			merged.Merge(e2.Run("main", app.Requests(s.Opt.Requests, s.Opt.Seed+int64(r))))
			violations += len(e2.Switcher.Violations())
		}
		exec, total := merged.BranchCoverage()
		return CoverageRow{
			App:          app.Name,
			BranchTotal:  total,
			BranchExec:   exec,
			MonitorTotal: h.MonitorSites(),
			MonitorExec:  merged.MonitorsExecuted(),
			Violations:   violations,
		}
	}, coverageErrRow)
}

// Table5Data runs the fuzzing campaign (paper Table 5), one application per
// worker-pool job.
func (s *Session) Table5Data() []CoverageRow {
	span, stop := s.Metrics.StartSpan("experiments/table5", nil)
	defer stop()
	return perApp(s, s.workers(), "experiments/table5-app", span, func(app *workload.App) CoverageRow {
		h := s.System(app, invariant.All()).Harden()
		rep := fuzzer.Run(h, "main", app.FuzzSeeds, fuzzer.Config{
			Iterations: s.Opt.FuzzIters,
			Seed:       s.Opt.Seed,
		})
		return CoverageRow{
			App:           app.Name,
			BranchTotal:   rep.BranchTotal,
			BranchExec:    rep.BranchExec,
			MonitorTotal:  rep.MonitorTotal,
			MonitorExec:   rep.MonitorExec,
			Violations:    len(rep.Violations),
			CFIViolations: rep.CFIViolations,
		}
	}, coverageErrRow)
}

// coverageErrRow turns a crashed per-app driver into an error row.
func coverageErrRow(app *workload.App, err error) CoverageRow {
	return CoverageRow{App: app.Name, Err: err}
}

// renderCoverage renders Table 4/5-style coverage rows.
func renderCoverage(title string, rows []CoverageRow) string {
	t := stats.NewTable("Application", "Branches Total", "Exec.", "Perc.",
		"Monitors Total", "Exec.", "Perc.", "Invariant Violations")
	var bSum, bTot, mSum, mTot float64
	for _, r := range rows {
		if r.Err != nil {
			// Crashed driver: an error row, excluded from the summary sums.
			t.AddRow(r.App, "-", "-", "-", "-", "-", "-", "ERROR: "+r.Err.Error())
			continue
		}
		bPct, mPct := 0.0, 0.0
		if r.BranchTotal > 0 {
			bPct = float64(r.BranchExec) / float64(r.BranchTotal)
		}
		if r.MonitorTotal > 0 {
			mPct = float64(r.MonitorExec) / float64(r.MonitorTotal)
		}
		bSum += float64(r.BranchExec)
		bTot += float64(r.BranchTotal)
		mSum += float64(r.MonitorExec)
		mTot += float64(r.MonitorTotal)
		t.AddRow(r.App,
			fmt.Sprintf("%d", r.BranchTotal), fmt.Sprintf("%d", r.BranchExec), stats.Pct(bPct),
			fmt.Sprintf("%d", r.MonitorTotal), fmt.Sprintf("%d", r.MonitorExec), stats.Pct(mPct),
			fmt.Sprintf("%d", r.Violations))
	}
	summary := ""
	if bTot > 0 && mTot > 0 {
		summary = fmt.Sprintf("overall: %s of branches, %s of runtime monitors executed\n",
			stats.Pct(bSum/bTot), stats.Pct(mSum/mTot))
	}
	return title + "\n" + t.String() + summary
}

// Table4 renders branch and monitor coverage for the CFI evaluation.
func (s *Session) Table4() string {
	return renderCoverage("Table 4: Branch and runtime monitor coverage for CFI evaluation", s.Table4Data())
}

// Table5 renders branch and monitor coverage after the fuzzing campaign.
func (s *Session) Table5() string {
	return renderCoverage("Table 5: Coverage for likely-invariant validation through fuzzing", s.Table5Data())
}
