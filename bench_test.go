// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation as testing.B benchmarks, plus ablation benches for the
// design decisions called out in DESIGN.md §5. Run:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fuzzer"
	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/pointsto"
	"repro/internal/workload"
)

var benchOpt = experiments.Options{Requests: 100, PerfRequests: 400, Runs: 1, FuzzIters: 60, Seed: 1}

// BenchmarkFigure1 regenerates the static-vs-observed CFI comparison.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.NewSession(benchOpt, 1, nil).Figure1Compute()
		if len(d.Sites) == 0 {
			b.Fatal("no callsites")
		}
	}
}

// BenchmarkTable2 regenerates the application inventory.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3 regenerates the precision table: 9 applications × 8
// configurations × (fallback + optimistic) analyses.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3Data(experiments.NewSession(experiments.Options{}, 1, nil).AnalyzeAll())
		if len(rows) != 9 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable4 regenerates the benchmark-driver coverage table.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NewSession(benchOpt, 1, nil).Table4Data()
		if len(rows) != 9 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable5 regenerates the fuzzing-campaign coverage table.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NewSession(benchOpt, 1, nil).Table5Data()
		if len(rows) != 9 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFigure10to12 regenerates the distribution figures (they share
// one analysis sweep).
func BenchmarkFigure10to12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data := experiments.NewSession(experiments.Options{}, 1, nil).AnalyzeAll()
		if len(experiments.Figure10(data)) == 0 ||
			len(experiments.Figure11(data)) == 0 ||
			len(experiments.Figure12(data)) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure13 regenerates the throughput figure.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NewSession(benchOpt, 1, nil).Figure13Data()
		if len(rows) != 9 {
			b.Fatal("bad figure")
		}
	}
}

// BenchmarkAnalyze measures the IGO analysis per application and
// configuration (solver cost ablation across the likely-invariant policies).
func BenchmarkAnalyze(b *testing.B) {
	for _, app := range workload.Apps() {
		m := app.MustModule()
		for _, cfg := range []invariant.Config{{}, invariant.All()} {
			b.Run(fmt.Sprintf("%s/%s", app.Name, cfg.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pointsto.New(m, cfg).Solve()
				}
			})
		}
	}
}

// BenchmarkScaledAnalysis is one analyze-30k operation of the repository
// benchmark (kbench/analyze.go) without the harness: compile
// ScaledProgram(1, 1000), about 29.6k constraint nodes, analyze it under
// every invariant with zero options (the optimistic solve plus the derived
// fallback), and harden it. It exists for profiling the solver-bound
// pipeline, e.g.
//
//	go test -run '^$' -bench ScaledAnalysis -cpuprofile cpu.out
func BenchmarkScaledAnalysis(b *testing.B) {
	src := workload.ScaledProgram(1, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := minic.Compile("scaled-1", src)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := core.AnalyzeCtx(context.Background(), m, invariant.All(), core.AnalyzeOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if sys.Harden() == nil {
			b.Fatal("no hardened system")
		}
	}
}

// BenchmarkRestoreAll times the derived fallback alone on analyze-30k's
// program: ScaledProgram(1, 1000) is compiled and solved under every
// invariant once, and each operation is one RestoreAll of that result
// (derivation plus incremental re-solve). Its allocations are what a
// derived analysis pays to share its parent's state.
func BenchmarkRestoreAll(b *testing.B) {
	m, err := minic.Compile("scaled-1", workload.ScaledProgram(1, 1000))
	if err != nil {
		b.Fatal(err)
	}
	opt := pointsto.New(m, invariant.All()).Solve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.RestoreAll(context.Background(), pointsto.Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecution measures interpreter throughput per hardening level:
// Unhardened (no checks), Baseline (fallback CFI only), and Kaleidoscope
// (optimistic CFI + monitors) — the microbenchmark behind Figure 13.
func BenchmarkExecution(b *testing.B) {
	for _, name := range []string{"mbedtls", "memcached", "tinydtls"} {
		app := workload.ByName(name)
		m := app.MustModule()
		inputs := app.Requests(50, 1)

		b.Run(name+"/Unhardened", func(b *testing.B) {
			mc := interp.New(m, interp.Config{})
			for i := 0; i < b.N; i++ {
				if tr := mc.Run("main", inputs); tr.Err != nil {
					b.Fatal(tr.Err)
				}
			}
		})
		for _, cfg := range []invariant.Config{{}, invariant.All()} {
			h := core.Analyze(m, cfg).Harden()
			label := "Baseline"
			if cfg.Any() {
				label = "Kaleidoscope"
			}
			b.Run(name+"/"+label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e := h.NewExecution(false)
					if tr := e.Run("main", inputs); tr.Err != nil {
						b.Fatal(tr.Err)
					}
				}
			})
		}
	}
}

// BenchmarkHardenedRequests is the repository benchmark's exec-hardened
// loop (kbench/exec.go) without the harness: the nine paper apps hardened
// under every invariant, and each operation one NewExecution plus a
// 400-request Run, cycling through the apps and four seeded input sets.
func BenchmarkHardenedRequests(b *testing.B) {
	type app struct {
		h      *core.Hardened
		inputs [][]int64
	}
	var apps []app
	for _, w := range workload.Apps() {
		sys, err := core.AnalyzeCtx(context.Background(), w.MustModule(), invariant.All(), core.AnalyzeOpts{})
		if err != nil {
			b.Fatal(err)
		}
		a := app{h: sys.Harden()}
		for k := int64(0); k < 4; k++ {
			a.inputs = append(a.inputs, w.Requests(400, 1000+k))
		}
		apps = append(apps, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := apps[i%len(apps)]
		if tr := a.h.NewExecution(false).Run("main", a.inputs[(i/len(apps))%len(a.inputs)]); tr.Err != nil {
			b.Fatal(tr.Err)
		}
	}
}

// BenchmarkFuzzer measures fuzzing executions per second on the smallest
// workload.
func BenchmarkFuzzer(b *testing.B) {
	app := workload.ByName("tinydtls")
	h := core.Analyze(app.MustModule(), invariant.All()).Harden()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fuzzer.Run(h, "main", app.FuzzSeeds, fuzzer.Config{Iterations: 20, Seed: int64(i + 1)})
	}
}

// BenchmarkIntrospection measures the overhead of the §4.1 tracing
// instrumentation relative to BenchmarkAnalyze (the paper calls it
// "non-trivial" but off the hot path).
func BenchmarkIntrospection(b *testing.B) {
	m := workload.ByName("libpng").MustModule()
	for i := 0; i < b.N; i++ {
		a := pointsto.New(m, invariant.Config{})
		a.SetTracer(nopTracer{})
		a.Solve()
	}
}

type nopTracer struct{}

func (nopTracer) Growth(pointsto.GrowthEvent) {}
func (nopTracer) Cycle(int, bool)             {}

// BenchmarkIncrementalRestore compares a full re-analysis against an
// incremental Restore after one PA violation (the §8 trade-off).
func BenchmarkIncrementalRestore(b *testing.B) {
	m := workload.ByName("mbedtls").MustModule()
	findPA := func(r interface{ Invariants() []invariant.Record }) *invariant.Record {
		for _, rec := range r.Invariants() {
			if rec.Kind == invariant.PA {
				rc := rec
				return &rc
			}
		}
		return nil
	}
	b.Run("FullReanalysis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pointsto.New(m, invariant.Config{Ctx: true, PWC: true}).Solve()
		}
	})
	b.Run("IncrementalRestore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r := pointsto.New(m, invariant.All()).Solve()
			rec := findPA(r)
			if rec == nil {
				b.Fatal("no PA invariant")
			}
			b.StartTimer()
			if _, err := r.Restore(*rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnalyzeAllSession measures the full 9-app × 8-config analysis
// matrix through the worker-pool session at several pool widths. On a
// multicore host the parallel variants approach linear speedup; on one core
// they measure the pool's scheduling overhead (which should be negligible).
func BenchmarkAnalyzeAllSession(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.NewSession(benchOpt, workers, nil)
				if len(s.AnalyzeAll()) != 9 {
					b.Fatal("bad matrix")
				}
			}
		})
	}
}

// BenchmarkSessionReuse measures an evaluation-shaped sequence (Table 3
// data, Table 4, debloating) on one shared session, where every artifact
// after the first hits the memoized analysis cache.
func BenchmarkSessionReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOpt, 1, nil)
		if len(s.AnalyzeAll()) != 9 || len(s.Table4Data()) != 9 || len(s.ExtDebloatData()) != 9 {
			b.Fatal("bad session")
		}
	}
}
