package repro

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/invariant"
	"repro/internal/pointsto"
	"repro/internal/workload"
)

// solverBenchRow is one (workload, solver mode) measurement in the
// machine-readable solver benchmark export.
type solverBenchRow struct {
	App            string  `json:"app"`
	Mode           string  `json:"mode"` // "full", "delta", or "prep"
	GraphNodes     int     `json:"graph_nodes"`
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	BitsPropagated int     `json:"bits_propagated"`
	BitsAvoided    int     `json:"bits_avoided"`
	DeltaFlushes   int     `json:"delta_flushes"`
	WorklistPops   int     `json:"worklist_pops"`
	SCCPasses      int     `json:"scc_passes"`
	PrepMerged     int     `json:"prep_merged,omitempty"`
	HCDCollapses   int     `json:"hcd_collapses,omitempty"`
	LCDCollapses   int     `json:"lcd_collapses,omitempty"`
	SpeedupVsFull  float64 `json:"speedup_vs_full,omitempty"`
}

// benchModes are the three solver configurations the export compares, all
// relative to "full" (plain worklist, full re-propagation, no offline
// preprocessing):
//
//	delta — difference propagation forced on, no preprocessing
//	prep  — offline HVN + hybrid cycle detection, delta in auto mode
//	        (the package default configuration)
var benchModes = []struct {
	name  string
	delta *bool // nil = auto
	prep  bool
}{
	{"full", boolPtr(false), false},
	{"delta", boolPtr(true), false},
	{"prep", nil, true},
}

func boolPtr(b bool) *bool { return &b }

// TestWriteBenchJSON runs the solver-mode ablation under testing.Benchmark
// and writes the results to the file named by the BENCH_JSON environment
// variable (the `make bench-json` entry point; the test is skipped when the
// variable is unset). The workload set is the nine paper apps plus the
// scaled randprog-1k/10k family (randprog-100k exists for on-demand runs via
// BenchmarkSolverPrep but would dominate the export's runtime).
//
// Beyond exporting numbers, the test enforces the regression contracts:
//
//   - difference propagation never consumes more pointee bits than full
//     re-propagation on any workload, and strictly fewer in aggregate;
//   - prep mode merges nodes offline (prep_merged > 0) and never runs more
//     sccPass sweeps than the no-prep baseline;
//   - on graphs of >= 10k nodes, prep mode is at least 1.5x faster than the
//     no-prep full solver (the tentpole's acceptance bar; measured ~3x).
//
// Small-app timing is reported, not asserted — CI machines are too noisy for
// sub-millisecond gates; the exported JSON is the reviewable record.
func TestWriteBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<file> to run the solver benchmark export")
	}
	apps := append(workload.Apps(), workload.ScaledApps()[:2]...)
	var rows []solverBenchRow
	var totalDelta, totalFull int
	for _, app := range apps {
		m := app.MustModule()
		perMode := map[string]*solverBenchRow{}
		for _, mode := range benchModes {
			solve := func() (pointsto.Stats, int) {
				a := pointsto.New(m, invariant.All())
				if mode.delta != nil {
					a.SetDelta(*mode.delta)
				}
				a.SetPrep(mode.prep)
				r := a.Solve()
				return r.Stats(), r.NodeCount()
			}
			st, nodes := solve()
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					solve()
				}
			})
			row := solverBenchRow{
				App:            app.Name,
				Mode:           mode.name,
				GraphNodes:     nodes,
				NsPerOp:        res.NsPerOp(),
				AllocsPerOp:    res.AllocsPerOp(),
				BytesPerOp:     res.AllocedBytesPerOp(),
				BitsPropagated: st.BitsPropagated,
				BitsAvoided:    st.BitsAvoided,
				DeltaFlushes:   st.DeltaFlushes,
				WorklistPops:   st.Iterations,
				SCCPasses:      st.SCCPasses,
				PrepMerged:     st.PrepMerged,
				HCDCollapses:   st.HCDCollapses,
				LCDCollapses:   st.LCDCollapses,
			}
			rows = append(rows, row)
			perMode[mode.name] = &rows[len(rows)-1]
		}
		d, f, p := perMode["delta"], perMode["full"], perMode["prep"]
		if d.BitsPropagated > f.BitsPropagated {
			t.Errorf("%s: delta propagated %d bits, full %d — delta must never be higher",
				app.Name, d.BitsPropagated, f.BitsPropagated)
		}
		totalDelta += d.BitsPropagated
		totalFull += f.BitsPropagated
		if p.SCCPasses > f.SCCPasses {
			t.Errorf("%s: prep ran %d sccPass sweeps, no-prep %d — prep must not add sweeps",
				app.Name, p.SCCPasses, f.SCCPasses)
		}
		if p.PrepMerged+p.HCDCollapses+p.LCDCollapses == 0 {
			t.Errorf("%s: prep mode merged nothing offline or online", app.Name)
		}
		d.SpeedupVsFull = float64(f.NsPerOp) / float64(d.NsPerOp)
		p.SpeedupVsFull = float64(f.NsPerOp) / float64(p.NsPerOp)
		if f.GraphNodes >= 10000 && p.SpeedupVsFull < 1.5 {
			t.Errorf("%s (%d nodes): prep speedup %.2fx vs full, want >= 1.5x",
				app.Name, f.GraphNodes, p.SpeedupVsFull)
		}
		t.Logf("%-13s %7d nodes | full %9d ns | delta %9d ns (%.2fx) | prep %9d ns (%.2fx, merged=%d hcd=%d)",
			app.Name, f.GraphNodes, f.NsPerOp, d.NsPerOp, d.SpeedupVsFull,
			p.NsPerOp, p.SpeedupVsFull, p.PrepMerged, p.HCDCollapses)
	}
	if totalDelta >= totalFull {
		t.Errorf("aggregate: delta propagated %d bits, full %d — delta must be strictly lower",
			totalDelta, totalFull)
	}
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d rows)", path, len(rows))
}
