package minic_test

import (
	"testing"

	"repro/internal/minic"
	"repro/internal/workload"
)

// FuzzCompile: any MiniC source yields a module or an error, never a panic,
// and never both or neither. The corpus starts from the nine workload apps,
// so mutations explore near-valid programs that reach the lowering passes,
// not just the lexer. (External test package: workload imports minic.)
func FuzzCompile(f *testing.F) {
	for _, app := range workload.Apps() {
		f.Add(app.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := minic.Compile("fuzz", src)
		if (m == nil) == (err == nil) {
			t.Fatalf("Compile returned module %v with error %v", m != nil, err)
		}
	})
}
