package minic_test

import (
	"math"
	"testing"

	"repro/internal/minic"
	"repro/internal/workload"
)

// BenchmarkCompileScaled compiles analyze-30k's program (ScaledProgram(1,
// 1000), ~275 KB of MiniC): the front end alone, which BenchmarkScaledAnalysis
// at the repository root runs ahead of the solve. Run with -benchmem.
func BenchmarkCompileScaled(b *testing.B) {
	src := workload.ScaledProgram(1, 1000)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minic.Compile("scaled-1", src); err != nil {
			b.Fatal(err)
		}
	}
}

// compileAllocs is the measured allocation count of one Compile of
// ScaledProgram(1, 30) (about 8 KB of MiniC); it was 6,330 while every
// pointer type, scope entry and list growth was its own allocation, and
// 2,147 while Validate made a block map per function.
const compileAllocs = 2141

// TestCompileAllocs pins the front end's allocations: one Compile of a
// 30-unit scaled program must not allocate more objects than measured when
// types became one value per module and the front end stopped allocating
// what it throws away, so a front-end regression fails here. The count is
// the least of three measurements: AllocsPerRun counts every allocation of
// the process, and the runtime's own now and then adds a few.
func TestCompileAllocs(t *testing.T) {
	src := workload.ScaledProgram(1, 30)
	n := math.Inf(1)
	for range 3 {
		n = min(n, testing.AllocsPerRun(5, func() {
			if _, err := minic.Compile("scaled-30", src); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if n > compileAllocs {
		t.Errorf("Compile(ScaledProgram(1, 30)): %.0f allocations, want at most %d", n, compileAllocs)
	}
}
