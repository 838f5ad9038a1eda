package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/invariant"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure1Data holds the per-callsite series of Figure 1: the target counts
// the static (baseline) analysis derives versus what execution observes.
type Figure1Data struct {
	Sites    []int
	Static   []int // baseline analysis target count per callsite
	Observed []int // runtime-observed target count per callsite
}

// Figure1Compute runs the MbedTLS-like workload and compares static CFI
// target counts with runtime-observed targets (paper Figure 1).
func (s *Session) Figure1Compute() *Figure1Data {
	_, stop := s.Metrics.StartSpan("experiments/figure1", nil)
	defer stop()
	app := workload.MbedTLS()
	h := s.System(app, invariant.Config{}).Harden()
	e := h.NewExecution(true)
	merged := e.Run("main", app.Requests(s.Opt.Requests, s.Opt.Seed))
	for r := 1; r < s.Opt.Runs; r++ {
		merged.Merge(h.NewExecution(true).Run("main", app.Requests(s.Opt.Requests, s.Opt.Seed+int64(r))))
	}
	d := &Figure1Data{}
	sites := h.Fallback.Sites
	sort.Ints(sites)
	for _, site := range sites {
		d.Sites = append(d.Sites, site)
		d.Static = append(d.Static, len(h.Fallback.Targets[site]))
		d.Observed = append(d.Observed, len(merged.ObservedTargets(site)))
	}
	return d
}

// Figure1 renders the static-vs-observed comparison.
func (s *Session) Figure1() string {
	d := s.Figure1Compute()
	var b strings.Builder
	b.WriteString("Figure 1: Indirect callsite targets for the MbedTLS-like workload\n")
	t := stats.NewTable("Callsite", "Static Analysis", "Runtime Observed")
	for i, site := range d.Sites {
		t.AddRow(fmt.Sprintf("#%d", site), fmt.Sprintf("%d", d.Static[i]), fmt.Sprintf("%d", d.Observed[i]))
	}
	b.WriteString(t.String())
	sSum, oSum := 0, 0
	for i := range d.Sites {
		sSum += d.Static[i]
		oSum += d.Observed[i]
	}
	fmt.Fprintf(&b, "static admits %.1fx more targets than execution observes\n",
		stats.Factor(float64(sSum), float64(oSum)))
	return b.String()
}

// boxFigure renders a per-app, per-config ASCII box-plot figure.
func boxFigure(title string, data []*AppData, series func(d *AppData, cfg string) []int) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	names := ConfigNames()
	for _, d := range data {
		axisMax := 1
		for _, n := range names {
			if m := stats.Max(series(d, n)); m > axisMax {
				axisMax = m
			}
		}
		fmt.Fprintf(&b, "%s (axis 0..%d)\n", d.App.Name, axisMax)
		for _, n := range names {
			box := stats.NewBox(series(d, n))
			fmt.Fprintf(&b, "  %-12s |%s| med=%.1f mean=%.2f out=%d\n",
				n, box.Render(float64(axisMax), 44), box.Median, box.Mean, len(box.Outliers))
		}
	}
	return b.String()
}

// Figure10 renders the distribution of points-to set sizes (paper Figure 10).
func Figure10(data []*AppData) string {
	return boxFigure("Figure 10: Points-to set sizes for pointers", data,
		func(d *AppData, cfg string) []int { return d.Sizes[cfg] })
}

// Figure11Data returns average CFI targets per app and configuration.
func Figure11Data(data []*AppData) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, d := range data {
		row := map[string]float64{}
		for _, n := range ConfigNames() {
			row[n] = stats.Mean(d.CFICounts[n])
		}
		out[d.App.Name] = row
	}
	return out
}

// Figure11 renders average CFI targets per indirect callsite (paper Figure 11).
func Figure11(data []*AppData) string {
	names := ConfigNames()
	t := stats.NewTable(append([]string{"Application"}, names...)...)
	avgs := Figure11Data(data)
	for _, d := range data {
		cells := []string{d.App.Name}
		for _, n := range names {
			cells = append(cells, stats.F(avgs[d.App.Name][n]))
		}
		t.AddRow(cells...)
	}
	return "Figure 11: Average CFI targets for indirect callsites\n" + t.String()
}

// Figure12 renders the distribution of CFI targets (paper Figure 12).
func Figure12(data []*AppData) string {
	return boxFigure("Figure 12: CFI targets for indirect callsites", data,
		func(d *AppData, cfg string) []int { return d.CFICounts[cfg] })
}
