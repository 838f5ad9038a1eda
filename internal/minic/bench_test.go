package minic_test

import (
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
