// Command kscope-bench regenerates the paper's evaluation tables and
// figures on the nine synthetic applications.
//
// Usage:
//
//	kscope-bench -all
//	kscope-bench -table 3 -fig 11 -fig 13
//	kscope-bench -table 5 -fuzz 1000
//	kscope-bench -all -trace trace.json -metrics-json run.json
//	kscope-bench -all -compare-metrics baseline.json -regress-threshold 0.1
//
// Flags:
//
//	-all               regenerate everything
//	-table N           regenerate table N (2, 3, 4, 5); repeatable
//	-fig N             regenerate figure N (1, 10, 11, 12, 13); repeatable
//	-requests N        requests per benchmark run (default 200)
//	-runs N            repetitions for throughput (default 3)
//	-fuzz N            fuzzing executions per application (default 400)
//	-seed N            base RNG seed (default 1)
//	-parallel N        worker-pool width (0 = GOMAXPROCS, 1 = serial)
//	-metrics           print a solver/interpreter telemetry snapshot on stderr
//	-metrics-json F    write the telemetry snapshot as JSON to F
//	-trace F           write a Chrome trace-event JSON span trace to F
//	                   (open in Perfetto or chrome://tracing)
//	-compare-metrics B load a baseline — a prior -metrics-json export, or a
//	                   live kscope-serve /metricsz endpoint when B is an
//	                   http(s) URL — and print per-instrument deltas; exit 1
//	                   if a watched instrument regresses past
//	                   -regress-threshold
//	-watch NAME        instrument to regression-check (repeatable; default
//	                   pointsto/worklist/pops, pointsto/delta/bits-propagated)
//	-regress-threshold fraction of allowed growth for watched instruments
//	                   (default 0.10)
//	-chaos N           run the fault-injection differential harness with base
//	                   seed N instead of rendering artifacts; exit 1 if any
//	                   app lands on an unsound outcome (0 = off)
//	-chaos-plans N     number of consecutive seeded fault plans for -chaos
//	                   (default 8)
//	-chaos-restart     with -chaos, also run each plan through the restart
//	                   leg: serve the apps through an in-process daemon with
//	                   a persistent result store and the faults armed
//	                   (including the persist/* disk faults), crash it
//	                   without flushing, restart fault-free on the same
//	                   store, and require byte-identical answers or a typed
//	                   error across the generation boundary
//	-fault-list        print every fault-injection site and exit
//	-cpuprofile F      write a runtime/pprof CPU profile to F
//	-memprofile F      write a runtime/pprof heap profile to F
//
// All telemetry goes to stderr or to files; stdout carries only the rendered
// artifacts, which stay byte-identical for every -parallel value and with
// telemetry on or off (Figure 13's wall-clock throughput numbers are the only
// run-to-run variation, and they vary at -parallel 1 too).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// intList collects repeatable integer flags.
type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }

func (l *intList) Set(s string) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

// defaultWatch is the regression watch list when no -watch flag is given:
// the two counters that track total solver effort.
var defaultWatch = []string{"pointsto/worklist/pops", "pointsto/delta/bits-propagated"}

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred profile/telemetry writers
// execute before the process exits.
func run() int {
	var tables, figs intList
	all := flag.Bool("all", false, "regenerate every table and figure")
	requests := flag.Int("requests", 0, "requests per benchmark run")
	runs := flag.Int("runs", 0, "repetitions for throughput averaging")
	fuzz := flag.Int("fuzz", 0, "fuzzing executions per application")
	seed := flag.Int64("seed", 0, "base RNG seed")
	csvDir := flag.String("csv", "", "also export points-to sets and CFI policies as CSV into this directory")
	parallel := flag.Int("parallel", 1, "worker-pool width (0 = GOMAXPROCS)")
	metrics := flag.Bool("metrics", false, "print a telemetry snapshot on stderr after the run")
	metricsJSON := flag.String("metrics-json", "", "write the telemetry snapshot as JSON to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the pipeline spans")
	comparePath := flag.String("compare-metrics", "", "compare this run against a baseline: a -metrics-json file or a live /metricsz URL")
	threshold := flag.Float64("regress-threshold", 0.10, "allowed fractional growth of watched instruments")
	chaosSeed := flag.Int64("chaos", 0, "run the chaos differential harness with this base seed (0 = off)")
	chaosPlans := flag.Int("chaos-plans", 8, "number of seeded fault plans for -chaos")
	chaosRestart := flag.Bool("chaos-restart", false, "with -chaos, also run each plan's crash/restart leg against a persistent store")
	faultList := flag.Bool("fault-list", false, "print every fault-injection site and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	var exts, watch stringList
	flag.Var(&tables, "table", "table number to regenerate (repeatable)")
	flag.Var(&figs, "fig", "figure number to regenerate (repeatable)")
	flag.Var(&exts, "ext", "extension experiment: debloat, graded, incremental (repeatable)")
	flag.Var(&watch, "watch", "instrument name to regression-check (repeatable)")
	flag.Parse()

	if *faultList {
		for _, s := range faultinject.Sites() {
			fmt.Println(s)
		}
		return 0
	}

	opt := experiments.Options{
		Requests:  *requests,
		Runs:      *runs,
		FuzzIters: *fuzz,
		Seed:      *seed,
	}
	if *all {
		tables = intList{2, 3, 4, 5}
		figs = intList{1, 10, 11, 12, 13}
		exts = stringList{"debloat", "graded", "incremental"}
	}
	if len(tables) == 0 && len(figs) == 0 && len(exts) == 0 && *csvDir == "" && *chaosSeed == 0 {
		flag.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kscope-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "kscope-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// One session for the whole run: all artifacts share its worker pool and
	// its per-(app, config) analysis cache, and report into one registry.
	// Any telemetry consumer (snapshot, trace, comparison) needs the
	// registry attached; with none requested it stays nil and the whole
	// pipeline runs instrumentation-free.
	var reg *telemetry.Registry
	if *metrics || *metricsJSON != "" || *tracePath != "" || *comparePath != "" {
		reg = telemetry.New()
	}
	if *chaosSeed != 0 {
		code := runChaos(*chaosSeed, *chaosPlans, *chaosRestart, opt, *parallel, reg)
		if reg != nil {
			snap := reg.Snapshot()
			if *metrics {
				fmt.Fprint(os.Stderr, snap.Text())
			}
			if err := exportSnapshot(snap, *metricsJSON, *tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "kscope-bench: %v\n", err)
				return 1
			}
		}
		return code
	}

	sess := experiments.NewSession(opt, *parallel, reg)

	out, err := renderArtifacts(sess, tables, figs, exts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kscope-bench: %v\n", err)
		return 2
	}
	if *csvDir != "" {
		if err := experiments.WriteCSVs(*csvDir, sess.AnalyzeAll()); err != nil {
			fmt.Fprintf(os.Stderr, "kscope-bench: csv export: %v\n", err)
			return 1
		}
		fmt.Printf("CSV results written to %s\n", *csvDir)
	}
	fmt.Println(strings.Join(out, "\n"))

	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "kscope-bench: memprofile: %v\n", err)
			return 1
		}
	}
	if reg == nil {
		return 0
	}
	snap := reg.Snapshot()
	if *metrics {
		fmt.Fprint(os.Stderr, snap.Text())
	}
	if err := exportSnapshot(snap, *metricsJSON, *tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "kscope-bench: %v\n", err)
		return 1
	}
	if *comparePath != "" {
		watchList := []string(watch)
		if len(watchList) == 0 {
			watchList = defaultWatch
		}
		regressed, err := compareAgainst(snap, *comparePath, watchList, *threshold, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kscope-bench: compare-metrics: %v\n", err)
			return 1
		}
		if regressed {
			return 1
		}
	}
	return 0
}

// runChaos drives the fault-injection differential harness over `plans`
// consecutive seeds, printing one report per plan. The exit code is 1 when
// any app under any plan violates the robustness contract (an Unsound
// classification), mirroring the chaos-smoke CI gate.
func runChaos(seed int64, plans int, restart bool, opt experiments.Options, parallel int, reg *telemetry.Registry) int {
	reports, err := chaos.RunMatrix(seed, plans, chaos.Options{
		Requests: opt.Requests,
		Runs:     opt.Runs,
		Workers:  parallel,
		Metrics:  reg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "kscope-bench: chaos: %v\n", err)
		return 1
	}
	failures := 0
	for _, rep := range reports {
		fmt.Print(rep.Text())
		failures += len(rep.Failures())
	}
	fmt.Printf("chaos: %d plan(s), %d unsound outcome(s)\n", len(reports), failures)
	if restart {
		for i := 0; i < plans; i++ {
			dir, err := os.MkdirTemp("", "kscope-chaos-restart-")
			if err != nil {
				fmt.Fprintf(os.Stderr, "kscope-bench: chaos restart: %v\n", err)
				return 1
			}
			rep, err := chaos.RunRestart(seed+int64(i), dir, chaos.Options{Metrics: reg})
			os.RemoveAll(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kscope-bench: chaos restart: %v\n", err)
				return 1
			}
			fmt.Print(rep.Text())
			failures += len(rep.Failures())
		}
		fmt.Printf("chaos restart: %d plan(s), %d unsound outcome(s) total\n", plans, failures)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// writeHeapProfile GCs (for up-to-date allocation stats) and writes the
// heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// stringList collects repeatable string flags.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(s string) error {
	*l = append(*l, s)
	return nil
}
