package chaos

import (
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// testOptions keeps individual sweeps small so the 50-plan matrix stays
// within unit-test time.
func testOptions() Options {
	return Options{Requests: 12, Runs: 2, Workers: 4, Metrics: telemetry.New()}
}

// TestChaosDifferential is the acceptance harness: every seeded fault plan,
// across every paper app, must land on an identical / soundly-degraded /
// typed-error outcome — never Unsound. 50 plans normally, 8 under -short
// (the CI chaos-smoke matrix).
func TestChaosDifferential(t *testing.T) {
	plans := 50
	if testing.Short() {
		plans = 8
	}
	reports, err := RunMatrix(1, plans, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != plans {
		t.Fatalf("got %d reports, want %d", len(reports), plans)
	}
	counts := map[Outcome]int{}
	for _, rep := range reports {
		for _, f := range rep.Failures() {
			t.Errorf("seed %d (%s): %s UNSOUND: %s (%v)", rep.Seed, rep.Plan, f.App, f.Detail, f.Err)
		}
		for _, a := range rep.Results {
			counts[a.Outcome]++
		}
	}
	t.Logf("outcomes over %d plans: identical=%d fallback=%d typed-error=%d unsound=%d",
		plans, counts[Identical], counts[Fallback], counts[TypedError], counts[Unsound])
	// The matrix must actually exercise degradation, not just pass vacuously:
	// across this many seeded plans at least one app must have degraded or
	// errored somewhere.
	if counts[Fallback]+counts[TypedError] == 0 {
		t.Error("no plan produced a degraded or errored outcome; fault injection is not reaching the pipeline")
	}
}

// A nil-fault sweep must be fully identical to itself and report no fired
// sites (determinism of the reference).
func TestChaosFaultFreeIsIdentical(t *testing.T) {
	o := testOptions()
	ref, err := reference(o)
	if err != nil {
		t.Fatal(err)
	}
	again, err := reference(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if string(ref[i].Value.bytes) != string(again[i].Value.bytes) {
			t.Errorf("app %d: fault-free artifacts differ between runs", i)
		}
		if ref[i].Value.switched || ref[i].Value.violations != 0 {
			t.Errorf("app %d: fault-free run switched views (%d violations)", i, ref[i].Value.violations)
		}
	}
}

// Same seed, same classification: a serial chaos run is reproducible end to
// end. (Workers must be 1: with a parallel pool, which app's hook lands a
// site's seed-chosen hit number depends on goroutine interleaving, so only
// the robustness contract — never Unsound — is interleaving-independent.)
func TestChaosRunDeterministic(t *testing.T) {
	o := testOptions()
	o.Workers = 1
	a, err := Run(7, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(7, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan != b.Plan {
		t.Fatalf("plans differ: %q vs %q", a.Plan, b.Plan)
	}
	for i := range a.Results {
		if a.Results[i].Outcome != b.Results[i].Outcome {
			t.Errorf("%s: outcome %v vs %v across identical runs",
				a.Results[i].App, a.Results[i].Outcome, b.Results[i].Outcome)
		}
	}
}

// The report renders every app with its outcome, and outcome counters land
// in telemetry.
func TestChaosReportAndCounters(t *testing.T) {
	o := testOptions()
	rep, err := Run(3, o)
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Text()
	if !strings.Contains(text, "chaos seed 3") {
		t.Errorf("report text missing header:\n%s", text)
	}
	for _, a := range rep.Results {
		if !strings.Contains(text, a.App) {
			t.Errorf("report text missing app %s", a.App)
		}
	}
	total := int64(0)
	for _, oc := range []Outcome{Identical, Fallback, TypedError, Unsound} {
		total += o.Metrics.Counter("chaos/outcome/" + oc.String()).Value()
	}
	if total != int64(len(rep.Results)) {
		t.Errorf("outcome counters sum to %d, want %d", total, len(rep.Results))
	}
}

// An explicitly armed spurious violation must classify as Fallback (soundly
// degraded), proving outcome (b) is reachable and correctly detected.
func TestChaosSpuriousViolationLandsOnFallback(t *testing.T) {
	o := testOptions()
	ref, err := reference(o)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Explicit(faultinject.SpuriousViolation)
	got := sweep(plan, o)
	fallbacks := 0
	for i := range got {
		ar := classify(ref[i].Value, got[i])
		if ar.Outcome == Unsound {
			t.Errorf("app %d unsound under spurious violation: %s %v", i, ar.Detail, ar.Err)
		}
		if ar.Outcome == Fallback {
			fallbacks++
		}
	}
	if !plan.Fired(faultinject.SpuriousViolation) {
		t.Skip("no app performed a monitored check on hit 1; fault never fired")
	}
	if fallbacks == 0 {
		t.Error("spurious violation fired but no app classified as Fallback")
	}
}
