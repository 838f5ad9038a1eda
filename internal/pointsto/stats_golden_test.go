package pointsto

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/invariant"
)

var update = flag.Bool("update", false, "rewrite testdata/stats.golden with current output")

// TestSolverStatsGolden pins the solver's work, not just its answer: every
// Stats field of the solve and of its RestoreAll, for every oracle module,
// invariant configuration and {delta on/off} x {prep on/off} corner, must
// match testdata/stats.golden. The differential oracles prove a change keeps
// the fixpoint; this proves a change meant to be mechanical (dropping dead
// edges, a different container) also keeps every count of the solver's work:
// pops, propagated bits, flushes, sweeps and collapses.
// Regenerate with: go test ./internal/pointsto -run TestSolverStatsGolden -update
func TestSolverStatsGolden(t *testing.T) {
	mods := oracleModules(t)
	var names []string
	for name := range mods {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		for _, cfg := range invariant.Ablations() {
			for _, delta := range []bool{false, true} {
				for _, prep := range []bool{false, true} {
					r := solveVariant(mods[name], cfg, delta, prep)
					derived, err := r.RestoreAll(context.Background(), Budget{})
					if err != nil {
						t.Fatalf("%s/%s: RestoreAll: %v", name, oracleConfigs[cfg], err)
					}
					key := fmt.Sprintf("%s %s delta=%v prep=%v", name, oracleConfigs[cfg], delta, prep)
					fmt.Fprintf(&b, "%s solve %+v\n", key, r.Stats())
					fmt.Fprintf(&b, "%s restore %+v\n", key, derived.Stats())
				}
			}
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "stats.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("solver stats diverge from %s (regenerate with -update if the change is intended):\n%s",
			golden, diffLines(string(want), got))
	}
}
