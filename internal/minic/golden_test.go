package minic_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/minic"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/kir.golden with current output")

// goldenErrors are malformed inputs whose exact diagnostics the golden pins,
// across the phases that can reject a program (lexer, parser, lowering).
var goldenErrors = []struct{ name, src string }{
	{"bad character", "int main() {\n  return 1 @ 2;\n}"},
	{"missing semicolon", "int main() {\n  int x\n  x = 1;\n  return x;\n}"},
	{"unknown struct", "int main() {\n  nope* p;\n  return 0;\n}"},
	{"undefined name", "int main() {\n  int x;\n  x = zz;\n  return x;\n}"},
	{"global initializer", "int g = 3;\nint main() { return g; }"},
	{"unterminated comment", "int g;\n/* opened here\nint main() { return 0; }\n"},
}

// TestKIRGolden pins the front end's whole output: the KIR text of the nine
// workload apps and of a small scaled program, every instruction's ID with
// its function, and the exact diagnostic for each of goldenErrors. The apps
// cover §6's heap-type pass both ways: mbedtls's sess_alloc and libpng's
// png_malloc wrappers print "malloc sizeof(T)" only because the pass typed
// their dynamic size, and curl's wrappers stay "malloc %n". A change
// meant to be mechanical (lexer, index tables, heap-type pass) must pass it
// unmodified. (External test package: workload imports minic.)
// Regenerate with: go test ./internal/minic -run TestKIRGolden -update
func TestKIRGolden(t *testing.T) {
	type unit struct{ name, src string }
	var units []unit
	for _, app := range workload.Apps() {
		units = append(units, unit{app.Name, app.Source})
	}
	units = append(units, unit{"scaled-1-12", workload.ScaledProgram(1, 12)})

	var b strings.Builder
	for _, u := range units {
		m, err := minic.Compile(u.name, u.src)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		fmt.Fprintf(&b, "=== %s\n%s", u.name, m.String())
		fmt.Fprintf(&b, "--- %s instructions (%d)\n", u.name, m.NumInstrs())
		for id := 1; id <= m.NumInstrs(); id++ {
			fmt.Fprintf(&b, "%d %s %s\n", id, m.FuncOfInstr(id).Name, m.InstrByID(id))
		}
	}
	b.WriteString("=== diagnostics\n")
	for _, c := range goldenErrors {
		m, err := minic.Compile("bad", c.src)
		if err == nil || m != nil {
			t.Fatalf("%s: Compile = (%v, %v), want an error and no module", c.name, m != nil, err)
		}
		fmt.Fprintf(&b, "%s: %v\n", c.name, err)
	}

	got := b.String()
	golden := filepath.Join("testdata", "kir.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("front-end output diverges from %s (regenerate with -update if the change is intended):\n%s",
			golden, firstDiff(string(want), got))
	}
}

// firstDiff describes the first line where want and got differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			return fmt.Sprintf("  line %d:\n    want: %s\n    got:  %s", i+1, lw, lg)
		}
	}
	return "  (outputs differ only in length)"
}
