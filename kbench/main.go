// Command kbench is the repository benchmark. It runs one named workload on
// the default configuration of the analysis pipeline, checks every answer
// against an oracle that shares no code with the solver, and prints one JSON
// result line:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 the run additionally times calls into each layer's public
// functions from outside the program and reports the per-layer metrics
// (layerMetrics). README.md documents the workloads, the metrics and which
// end-to-end metric each layer metric should move.
//
//	bash kbench/run.sh --workload analyze-30k --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// endToEnd lists the end-to-end metrics every workload reports with --trace
// 0, with their units. Each workload defines its own operation (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
}

// layerMetrics lists the per-layer metrics reported with --trace 1. A layer
// the workload does not cross reports 0.
var layerMetrics = []metricDef{
	{"minic.compile_ms", "ms"},
	{"pointsto.fallback.build_ms", "ms"},
	{"pointsto.fallback.solve_ms", "ms"},
	{"pointsto.optimistic.build_ms", "ms"},
	{"pointsto.optimistic.solve_ms", "ms"},
	{"pointsto.alloc_mb", "MB"},
	{"pointsto.graph_nodes", "count"},
	{"pointsto.worklist_pops", "count"},
	{"pointsto.bits_propagated", "count"},
	{"pointsto.scc_passes", "count"},
	{"pointsto.prep_merged", "count"},
	{"pointsto.pts_total", "count"},
	{"pointsto.waste_ratio", "ratio"},
	{"cfi.harden_ms", "ms"},
	{"core.layer_coverage", "ratio"},
	{"core.trace_overhead", "ratio"},
	{"core.new_execution_us", "us"},
	{"interp.steps", "count"},
	{"interp.mem_ops", "count"},
	{"interp.unhardened_ns_per_step", "ns"},
	{"cfi.check_overhead", "ratio"},
	{"memview.monitor_overhead", "ratio"},
	{"memview.checks", "count"},
	{"memview.checks_per_memop", "ratio"},
	{"serve.hit_share", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p90_ms", "ms"},
	{"serve.miss_compile_ms", "ms"},
	{"serve.miss_analyze_ms", "ms"},
	{"serve.miss_residual_ms", "ms"},
	{"serve.warm_records", "count"},
	{"serve.tracing_overhead", "ratio"},
	{"persist.save_ms", "ms"},
	{"persist.load_ms", "ms"},
	{"persist.record_kb", "KB"},
}

type metricDef struct{ name, unit string }

// options configures one workload run.
type options struct {
	seed    int64
	run     time.Duration // how long the measured loop runs
	trace   bool          // also run the traced per-layer measurements
	workdir string        // scratch directory for on-disk state (serve-mix)
	small   bool          // test-sized inputs

	// Test hooks that alter one answer before its oracle sees it.
	tamperAnalysis func(*views)
	tamperExec     func(tr *execAnswer)
	tamperServe    func(endpoint string, body []byte) []byte
}

// report is what a workload measured: operation counts, failures, and both
// metric families by name (units come from endToEnd/layerMetrics).
type report struct {
	tally
	e2e    map[string]float64
	layers map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

var workloads = map[string]func(options) (*report, error){
	"analyze-30k":   runAnalyze,
	"exec-hardened": runExec,
	"serve-mix":     runServe,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// resultFor renders a report as the result line. Every listed metric must be
// present: end-to-end metrics because a workload that cannot measure one is
// broken, layer metrics because absence means 0 (layer not crossed) only
// when filled in explicitly here.
func resultFor(rep *report, trace bool) (resultLine, error) {
	line := resultLine{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	defs, values := endToEnd, rep.e2e
	if trace {
		defs, values = layerMetrics, rep.layers
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !trace {
			return line, fmt.Errorf("workload did not measure %s", d.name)
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return line, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: analyze-30k, exec-hardened or serve-mix")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long the measured loop runs")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for on-disk state")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "kbench: unknown workload %q (want one of %v)\n", *name, names)
		os.Exit(2)
	}
	rep, err := run(options{
		seed:    *seed,
		run:     time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workdir: *workdir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "kbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := resultFor(rep, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
