package workload

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/pointsto"
)

// TestScaledAppsCalibration pins the scaled family's contract: deterministic
// sources, registry separation from the nine paper apps, and constraint
// graphs within 25% of the advertised node counts (the calibration that
// makes size-dependent solver measurements interpretable).
func TestScaledAppsCalibration(t *testing.T) {
	apps := ScaledApps()
	if len(apps) != 3 {
		t.Fatalf("ScaledApps: got %d apps, want 3", len(apps))
	}
	if len(Apps()) != 9 {
		t.Fatalf("Apps() must stay the nine paper apps, got %d", len(Apps()))
	}
	if len(AllApps()) != 12 {
		t.Fatalf("AllApps: got %d, want 12", len(AllApps()))
	}
	targets := map[string]int{"randprog-1k": 1000, "randprog-10k": 10000, "randprog-100k": 100000}
	for _, app := range apps {
		if ByName(app.Name) == nil {
			t.Errorf("%s: not reachable via ByName", app.Name)
		}
		if app.Source != ScaledApps()[0].Source && app.Name == "randprog-1k" {
			t.Errorf("%s: source not deterministic across calls", app.Name)
		}
		want := targets[app.Name]
		if want >= 100000 {
			// The 100k tier takes seconds to solve; its calibration is
			// exercised by the opt-in solver benchmarks, not the test suite.
			continue
		}
		m, err := app.Module()
		if err != nil {
			t.Fatalf("%s: compile: %v", app.Name, err)
		}
		r := pointsto.New(m, invariant.Config{}).Solve()
		n := r.NodeCount()
		if n < want*3/4 || n > want*5/4 {
			t.Errorf("%s: %d constraint nodes, want within 25%% of %d", app.Name, n, want)
		}
	}
}

// TestScaledProgramDeterministic: same seed and size, same source.
func TestScaledProgramDeterministic(t *testing.T) {
	if ScaledProgram(7, 20) != ScaledProgram(7, 20) {
		t.Fatal("ScaledProgram is not deterministic for a fixed seed")
	}
	if ScaledProgram(7, 20) == ScaledProgram(8, 20) {
		t.Fatal("ScaledProgram ignores its seed")
	}
}
