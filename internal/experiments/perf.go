package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/invariant"
	"repro/internal/stats"
	"repro/internal/workload"
)

// PerfRow holds one application's throughput measurements (paper Figure 13).
type PerfRow struct {
	App        string
	Throughput map[string]float64 // config -> requests/second
	Overhead   map[string]float64 // config -> slowdown vs Baseline (0.05 = 5%)
	// CheckDensity is monitor checks per memory operation under full
	// Kaleidoscope (the paper reports a 4.78% maximum).
	CheckDensity float64
	// ViolationsObserved counts invariant violations during benchmarking
	// (the paper observes zero).
	ViolationsObserved int
	// Err is set when the app's measurement driver crashed.
	Err error
}

// Figure13Data benchmarks every application under every configuration:
// the hardened interpreter executes the request driver, and throughput is
// requests per wall-clock second. The Baseline configuration carries CFI
// checks derived from the imprecise analysis but no monitors; Kaleidoscope
// configurations add their likely-invariant monitors.
//
// The analyses come from the session cache, but the measurement loops always
// run on a single goroutine — even in a parallel session — because
// concurrent cells would contend for cores and distort each other's
// wall-clock throughput. This is the one artifact whose numbers are not
// byte-reproducible across runs.
func (s *Session) Figure13Data() []PerfRow {
	span, stop := s.Metrics.StartSpan("experiments/figure13", nil)
	defer stop()
	return perApp(s, 1, "experiments/figure13-app", span, func(app *workload.App) PerfRow {
		row := PerfRow{
			App:        app.Name,
			Throughput: map[string]float64{},
			Overhead:   map[string]float64{},
		}
		for _, cfg := range invariant.Ablations() {
			h := s.System(app, cfg).Harden()
			// Warm-up run (allocator and cache effects), then median-of-N.
			h.NewExecution(false).Run("main", app.Requests(s.Opt.PerfRequests/4, s.Opt.Seed))
			var samples []float64
			for r := 0; r < s.Opt.Runs; r++ {
				inputs := app.Requests(s.Opt.PerfRequests, s.Opt.Seed+int64(r))
				e := h.NewExecution(false)
				start := time.Now()
				tr := e.Run("main", inputs)
				elapsed := time.Since(start)
				if tr.Err != nil {
					continue
				}
				row.ViolationsObserved += len(e.Switcher.Violations())
				samples = append(samples, float64(s.Opt.PerfRequests)/elapsed.Seconds())
				if cfg == invariant.All() && r == 0 && tr.MemOps > 0 {
					row.CheckDensity = float64(e.Runtime.ChecksPerformed) / float64(tr.MemOps)
				}
			}
			row.Throughput[cfg.Name()] = median(samples)
		}
		base := row.Throughput["Baseline"]
		for name, tp := range row.Throughput {
			if tp > 0 && base > 0 {
				row.Overhead[name] = base/tp - 1
			}
		}
		return row
	}, func(app *workload.App, err error) PerfRow {
		return PerfRow{App: app.Name, Err: err}
	})
}

// median returns the middle sample (0 for empty input).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

// Figure13 renders the throughput comparison.
func (s *Session) Figure13() string {
	rows := s.Figure13Data()
	names := ConfigNames()
	var b strings.Builder
	b.WriteString("Figure 13: Average throughput of the hardened applications (requests/sec)\n")
	t := stats.NewTable(append([]string{"Application"}, append(names, "Kd overhead", "checks/memop")...)...)
	var ovSum float64
	var ovMax float64
	var maxApp string
	measured := 0
	for _, r := range rows {
		if r.Err != nil {
			t.AddRow(r.App, "ERROR: "+r.Err.Error())
			continue
		}
		measured++
		cells := []string{r.App}
		for _, n := range names {
			cells = append(cells, fmt.Sprintf("%.0f", r.Throughput[n]))
		}
		ov := r.Overhead["Kaleidoscope"]
		ovSum += ov
		if ov > ovMax {
			ovMax = ov
			maxApp = r.App
		}
		cells = append(cells, stats.Pct(ov), stats.Pct(r.CheckDensity))
		t.AddRow(cells...)
	}
	b.WriteString(t.String())
	if measured > 0 {
		fmt.Fprintf(&b, "average Kaleidoscope overhead %s, maximum %s (%s); no invariant violations observed\n",
			stats.Pct(ovSum/float64(measured)), stats.Pct(ovMax), maxApp)
	}
	return b.String()
}
