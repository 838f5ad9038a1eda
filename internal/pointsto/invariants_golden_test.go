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

var updateInvariants = flag.Bool("update-invariants", false, "rewrite testdata/invariants.golden with current output")

// TestInvariantsGolden pins every invariant list a result reports, in full:
// each record's every field (nil and empty slices told apart, Desc
// included), in order, for every oracle module under every invariant
// configuration — after the solve, after each step of restoring the first
// remaining record one at a time until none is left, and after RestoreAll.
// A change to how the solver keeps its assumptions must leave this file
// byte-identical.
// Regenerate with: go test ./internal/pointsto -run TestInvariantsGolden -update-invariants
func TestInvariantsGolden(t *testing.T) {
	mods := oracleModules(t)
	var names []string
	for name := range mods {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	list := func(key, step string, recs []invariant.Record) {
		fmt.Fprintf(&b, "%s %s: %d records\n", key, step, len(recs))
		for _, rec := range recs {
			fmt.Fprintf(&b, "\t%#v\n", rec)
		}
	}
	for _, name := range names {
		for _, cfg := range invariant.Ablations() {
			key := name + " " + oracleConfigs[cfg]
			r := New(mods[name], cfg).Solve()
			list(key, "solve", r.Invariants())
			cur := r
			for step := 1; len(cur.Invariants()) > 0; step++ {
				next, err := cur.Restore(cur.Invariants()[0])
				if err != nil {
					t.Fatalf("%s: restore %d: %v", key, step, err)
				}
				cur = next
				list(key, fmt.Sprintf("restore %d", step), cur.Invariants())
			}
			all, err := r.RestoreAll(context.Background(), Budget{})
			if err != nil {
				t.Fatalf("%s: RestoreAll: %v", key, err)
			}
			list(key, "restore all", all.Invariants())
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "invariants.golden")
	if *updateInvariants {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-invariants): %v", err)
	}
	if got != string(want) {
		t.Errorf("invariant lists diverge from %s (regenerate with -update-invariants if the change is intended):\n%s",
			golden, diffLines(string(want), got))
	}
}
