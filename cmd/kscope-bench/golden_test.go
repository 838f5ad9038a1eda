package main

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenOpt mirrors the fast full-matrix options used across the test suite;
// the artifacts still cover every app, configuration, and driver path.
var goldenOpt = experiments.Options{Requests: 40, PerfRequests: 200, Runs: 2, FuzzIters: 40, Seed: 1}

// renderDeterministic renders every deterministic artifact the CLI can emit,
// exactly as `kscope-bench -all` would order them. Figure 13 is deliberately
// absent: its cells are wall-clock throughput and differ between any two
// runs, serial or not. reg may be nil (telemetry off) — the rendered bytes
// must not depend on it either way.
func renderDeterministic(t *testing.T, parallel int, reg *telemetry.Registry) string {
	t.Helper()
	sess := experiments.NewSession(goldenOpt, parallel, reg)
	out, err := renderArtifacts(sess,
		[]int{2, 3, 4, 5},
		[]int{1, 10, 11, 12},
		[]string{"debloat", "graded", "incremental"})
	if err != nil {
		t.Fatalf("renderArtifacts: %v", err)
	}
	return strings.Join(out, "\n") + "\n"
}

// TestGoldenOutput is the pipeline's end-to-end determinism contract: the
// full deterministic artifact set matches the checked-in golden file
// byte-for-byte, at every worker-pool width. This subsumes the older
// runner-level parallel-vs-serial comparison — any nondeterminism (map
// iteration, worker interleaving, solver strategy divergence) and any
// unintended change to the rendered numbers shows up as a diff here.
// Regenerate with: go test ./cmd/kscope-bench -run TestGoldenOutput -update
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation matrix")
	}
	golden := filepath.Join("testdata", "golden", "artifacts.txt")
	ref := renderDeterministic(t, 1, nil)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(ref), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if ref != string(want) {
		t.Errorf("-parallel 1 output diverges from %s (regenerate with -update if the change is intended):\n%s",
			golden, firstDiff(string(want), ref))
	}
	for _, p := range []int{4, 8} {
		if got := renderDeterministic(t, p, nil); got != ref {
			t.Errorf("-parallel %d output diverges from -parallel 1:\n%s", p, firstDiff(ref, got))
		}
	}
	// Tracing must be a pure observer: with a live registry collecting spans
	// and histograms the artifacts stay byte-identical at every pool width.
	for _, p := range []int{1, 4, 8} {
		reg := telemetry.New()
		if got := renderDeterministic(t, p, reg); got != ref {
			t.Errorf("-parallel %d output with tracing on diverges from baseline:\n%s", p, firstDiff(ref, got))
		}
		if len(reg.Snapshot().Spans) == 0 {
			t.Errorf("-parallel %d traced render recorded no spans", p)
		}
	}
}

// firstDiff locates the first differing line between two artifact dumps.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			return strings.Join([]string{
				"line " + strconv.Itoa(i+1) + ":",
				"  want: " + lw,
				"  got:  " + lg,
			}, "\n")
		}
	}
	return "(equal)"
}
