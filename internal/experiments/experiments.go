// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the nine synthetic applications:
//
//	Figure 1  — static vs runtime-observed CFI targets (MbedTLS)
//	Table 2   — application inventory
//	Table 3   — average/maximum points-to set sizes across configurations
//	Figure 10 — box plots of points-to set sizes
//	Figure 11 — average CFI targets per indirect callsite
//	Figure 12 — box plots of CFI targets
//	Figure 13 — throughput of hardened applications
//	Table 4   — branch/monitor coverage under the benchmark drivers
//	Table 5   — branch/monitor coverage under fuzzing
//
// Absolute numbers differ from the paper (the substrate is an interpreter on
// synthetic workloads); the shapes — which policy helps which application,
// where gains are capped, that no invariant fires — are the reproduction
// targets (see EXPERIMENTS.md).
package experiments

import (
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/workload"
)

// Options sizes the experiments; the zero value gives full-size runs.
type Options struct {
	Requests     int   // requests per benchmark run (default 200)
	PerfRequests int   // requests per throughput run (default 4000; larger to beat timer noise)
	Runs         int   // repetitions for throughput averaging (default 3)
	FuzzIters    int   // fuzzing executions per app (default 400)
	Seed         int64 // base RNG seed (default 1)
}

func (o Options) withDefaults() Options {
	if o.Requests == 0 {
		o.Requests = 200
	}
	if o.PerfRequests == 0 {
		o.PerfRequests = 4000
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.FuzzIters == 0 {
		o.FuzzIters = 400
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// AppData holds the per-application analysis results across the eight
// configurations of Table 3.
type AppData struct {
	App     *workload.App
	Systems map[string]*core.System // config name -> analysis
	// Sizes are points-to set sizes over the shared (fallback) population.
	Sizes map[string][]int
	// CFICounts are per-callsite permitted-target counts.
	CFICounts map[string][]int
}

// ConfigNames returns the eight configuration labels in the paper's column
// order.
func ConfigNames() []string {
	var out []string
	for _, cfg := range invariant.Ablations() {
		out = append(out, cfg.Name())
	}
	return out
}
