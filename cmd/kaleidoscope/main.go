// Command kaleidoscope runs the IGO pointer analysis on a MiniC source file
// and reports points-to sets, likely invariants, CFI policies, and (with
// -run) a monitored execution — the CLI equivalent of the paper's analysis
// pipeline.
//
// Usage:
//
//	kaleidoscope [flags] file.mc
//	kaleidoscope [flags] -app mbedtls
//
// Flags:
//
//	-config NAME   invariant configuration: baseline, ctx, pa, pwc,
//	               ctx-pa, ctx-pwc, pa-pwc, all (default all)
//	-pts           print points-to sets of top-level pointers
//	-cfi           print the CFI policies of both memory views
//	-introspect    run the §4.1 introspection framework and print its report
//	-run           execute main() under monitoring
//	-inputs LIST   comma-separated integer input stream for -run
//	-ir            dump the compiled KIR module
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/introspect"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/pointsto"
	"repro/internal/workload"
)

func main() {
	var (
		configName = flag.String("config", "all", "invariant configuration (baseline|ctx|pa|pwc|ctx-pa|ctx-pwc|pa-pwc|all)")
		appName    = flag.String("app", "", "analyze a built-in workload instead of a file")
		showPts    = flag.Bool("pts", false, "print points-to sets")
		showCFI    = flag.Bool("cfi", false, "print CFI policies for both memory views")
		doIntro    = flag.Bool("introspect", false, "run the introspection framework")
		doRun      = flag.Bool("run", false, "execute main() under monitoring")
		inputsFlag = flag.String("inputs", "", "comma-separated inputs for -run")
		dumpIR     = flag.Bool("ir", false, "dump the compiled KIR module")
	)
	flag.Parse()

	cfg, err := invariant.ParseConfig(*configName)
	if err != nil {
		fatal(err)
	}
	mod, err := loadModule(*appName, flag.Args())
	if err != nil {
		fatal(err)
	}
	if *dumpIR {
		fmt.Println(mod)
	}

	if *doIntro {
		fw := introspect.New()
		a := pointsto.New(mod, invariant.Config{})
		a.SetTracer(fw)
		a.Solve()
		fmt.Print(fw.Report())
	}

	s := core.Analyze(mod, cfg)
	fmt.Printf("analysis: %s | %d objects, %d constraint nodes, %d solver iterations\n",
		cfg.Name(), len(s.Optimistic.Objects()), s.Optimistic.NodeCount(), s.Optimistic.Stats().Iterations)
	fmt.Printf("likely invariants assumed: %d (monitor sites: %d)\n",
		len(s.Invariants()), s.Optimistic.Stats().MonitorSites)
	for _, rec := range s.Invariants() {
		fmt.Printf("  [%s] #%d: %s\n", rec.Kind, rec.Site, rec.Desc)
	}

	if *showPts {
		fmt.Println("\npoints-to sets (optimistic | fallback sizes):")
		for _, p := range s.Population() {
			refs := s.Optimistic.PointsTo(p.Fn, p.Reg)
			label := p.Fn + ":" + p.Reg
			if p.Reg == "" {
				label = "ret(" + p.Fn + ")"
			}
			var names []string
			for _, ref := range refs {
				names = append(names, ref.String())
			}
			fbSize := s.Fallback.SizeOf(p)
			fmt.Printf("  %-30s %2d | %2d  {%s}\n", label, len(refs), fbSize, strings.Join(names, ", "))
		}
	}

	h := s.Harden()
	if *showCFI {
		fmt.Println("\noptimistic memory view:")
		fmt.Print(h.Optimistic.Describe())
		fmt.Println("fallback memory view:")
		fmt.Print(h.Fallback.Describe())
	}

	if *doRun {
		inputs, err := parseInputs(*inputsFlag)
		if err != nil {
			fatal(err)
		}
		if *appName != "" && *inputsFlag == "" {
			inputs = workload.ByName(*appName).Requests(20, 1)
		}
		e := h.NewExecution(true)
		tr := e.Run("main", inputs)
		fmt.Printf("\nexecution: steps=%d memops=%d outputs=%v\n", tr.Steps, tr.MemOps, tr.Outputs)
		if tr.Err != nil {
			fmt.Printf("execution fault: %v\n", tr.Err)
		} else {
			fmt.Printf("result: %d\n", tr.Result)
		}
		exec, total := tr.BranchCoverage()
		fmt.Printf("coverage: %d/%d branch edges, %d monitor sites fired, %d monitor checks, %d CFI lookups\n",
			exec, total, tr.MonitorsExecuted(), e.Runtime.ChecksPerformed, e.Runtime.CFILookups)
		if e.Switcher.Switched() {
			fmt.Printf("memory view switched to fallback; violations:\n")
			for _, v := range e.Switcher.Violations() {
				fmt.Printf("  %s\n", v)
			}
		} else {
			fmt.Println("no likely-invariant violations: optimistic memory view held")
		}
	}
}

func loadModule(appName string, args []string) (*ir.Module, error) {
	if appName != "" {
		app := workload.ByName(appName)
		if app == nil {
			return nil, fmt.Errorf("unknown workload %q", appName)
		}
		return app.Module()
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("usage: kaleidoscope [flags] file.mc (or -app NAME)")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	return minic.Compile(args[0], string(src))
}

func parseInputs(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad input %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kaleidoscope:", err)
	os.Exit(1)
}
