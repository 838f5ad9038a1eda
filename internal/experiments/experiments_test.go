package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

var small = Options{Requests: 30, Runs: 2, FuzzIters: 40, Seed: 1}

// serialSession runs every driver on one worker, without telemetry.
func serialSession(opt Options) *Session { return NewSession(opt, 1, nil) }

func TestTable2ListsAllApps(t *testing.T) {
	s := Table2()
	for _, name := range []string{"mbedtls", "libtiff", "curl", "lighttpd", "memcached", "libpng", "libxml", "wget", "tinydtls"} {
		if !strings.Contains(s, name) {
			t.Errorf("Table 2 missing %s", name)
		}
	}
}

func TestTable3ShapesHold(t *testing.T) {
	data := serialSession(Options{}).AnalyzeAll()
	rows := Table3Data(data)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	byApp := map[string]Table3Row{}
	for _, r := range rows {
		byApp[r.App] = r
		// Every app improves under full Kaleidoscope.
		if r.Factor <= 1 {
			t.Errorf("%s: factor %.2f <= 1", r.App, r.Factor)
		}
		// Kaleidoscope is the best (or tied-best) column.
		for _, n := range ConfigNames() {
			if r.Avg["Kaleidoscope"] > r.Avg[n]+1e-9 {
				t.Errorf("%s: Kaleidoscope avg %.2f worse than %s %.2f", r.App, r.Avg["Kaleidoscope"], n, r.Avg[n])
			}
		}
	}
	// Per-paper shapes.
	if byApp["wget"].Max["Baseline"] != byApp["wget"].Max["Kaleidoscope"] {
		t.Error("wget max should be unchanged")
	}
	if byApp["tinydtls"].Max["Baseline"] != byApp["tinydtls"].Max["Kaleidoscope"] {
		t.Error("tinydtls max should be unchanged")
	}
	// MbedTLS-like: the largest factors come from the conjunction apps.
	if byApp["mbedtls"].Factor < byApp["lighttpd"].Factor {
		t.Error("mbedtls factor should exceed lighttpd's")
	}
	if byApp["libpng"].Factor < byApp["curl"].Factor {
		t.Error("libpng factor should exceed curl's")
	}
	// Rendering includes both halves.
	out := Table3(data)
	if !strings.Contains(out, "Average Points-to") || !strings.Contains(out, "Max Points-to") {
		t.Error("Table 3 rendering incomplete")
	}
}

func TestFigure1StaticOverapproximatesRuntime(t *testing.T) {
	d := serialSession(small).Figure1Compute()
	if len(d.Sites) == 0 {
		t.Fatal("no indirect callsites")
	}
	looser := false
	for i := range d.Sites {
		if d.Static[i] < d.Observed[i] {
			t.Errorf("site %d: static %d < observed %d (unsound)", d.Sites[i], d.Static[i], d.Observed[i])
		}
		if d.Static[i] > d.Observed[i] {
			looser = true
		}
	}
	if !looser {
		t.Error("static analysis not looser than runtime anywhere: no imprecision to show")
	}
	if s := serialSession(small).Figure1(); !strings.Contains(s, "Runtime Observed") {
		t.Error("Figure 1 rendering incomplete")
	}
}

func TestFigures10to12Render(t *testing.T) {
	data := serialSession(Options{}).AnalyzeAll()
	f10 := Figure10(data)
	f11 := Figure11(data)
	f12 := Figure12(data)
	for _, s := range []string{f10, f11, f12} {
		if len(s) < 200 {
			t.Errorf("figure rendering too short:\n%s", s)
		}
	}
	if !strings.Contains(f10, "mbedtls") || !strings.Contains(f12, "tinydtls") {
		t.Error("figures missing apps")
	}
	// Figure 11: CFI averages weakly improve for every app.
	avgs := Figure11Data(data)
	for app, row := range avgs {
		if row["Kaleidoscope"] > row["Baseline"]+1e-9 {
			t.Errorf("%s: Kaleidoscope CFI avg %.2f worse than baseline %.2f", app, row["Kaleidoscope"], row["Baseline"])
		}
	}
}

func TestTable4CoverageAndZeroViolations(t *testing.T) {
	rows := serialSession(small).Table4Data()
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Violations != 0 {
			t.Errorf("%s: %d invariant violations during benchmarking", r.App, r.Violations)
		}
		if r.BranchExec == 0 || r.BranchTotal == 0 {
			t.Errorf("%s: no branch coverage", r.App)
		}
		if r.MonitorExec == 0 {
			t.Errorf("%s: no monitors executed", r.App)
		}
		if r.MonitorExec > r.MonitorTotal {
			t.Errorf("%s: executed %d monitors of %d total", r.App, r.MonitorExec, r.MonitorTotal)
		}
	}
	if s := renderCoverage("x", rows); !strings.Contains(s, "overall") {
		t.Error("coverage rendering incomplete")
	}
}

func TestTable5FuzzingZeroViolations(t *testing.T) {
	rows := serialSession(small).Table5Data()
	for _, r := range rows {
		if r.Violations != 0 {
			t.Errorf("%s: %d invariant violations under fuzzing", r.App, r.Violations)
		}
		if r.CFIViolations != 0 {
			t.Errorf("%s: %d CFI violations under fuzzing", r.App, r.CFIViolations)
		}
		if r.BranchExec == 0 {
			t.Errorf("%s: no coverage", r.App)
		}
	}
}

func TestFigure13ThroughputAndDensity(t *testing.T) {
	rows := serialSession(Options{Requests: 60, PerfRequests: 200, Runs: 2, Seed: 1}).Figure13Data()
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Throughput["Baseline"] <= 0 || r.Throughput["Kaleidoscope"] <= 0 {
			t.Errorf("%s: degenerate throughput %+v", r.App, r.Throughput)
		}
		if r.ViolationsObserved != 0 {
			t.Errorf("%s: violations during benchmarking", r.App)
		}
		if r.CheckDensity < 0 || r.CheckDensity > 0.5 {
			t.Errorf("%s: implausible check density %.3f", r.App, r.CheckDensity)
		}
	}
	if s := serialSession(Options{Requests: 40, PerfRequests: 120, Runs: 1, Seed: 1}).Figure13(); !strings.Contains(s, "overhead") {
		t.Error("Figure 13 rendering incomplete")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Requests == 0 || o.Runs == 0 || o.FuzzIters == 0 || o.Seed == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

func TestConfigNamesOrder(t *testing.T) {
	names := ConfigNames()
	want := []string{"Baseline", "Kd-Ctx", "Kd-PA", "Kd-PWC", "Kd-Ctx-PA", "Kd-Ctx-PWC", "Kd-PA-PWC", "Kaleidoscope"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestFactorHelper(t *testing.T) {
	if stats.Factor(10, 5) != 2 {
		t.Error("factor")
	}
}

func TestExtDebloat(t *testing.T) {
	rows := serialSession(Options{}).ExtDebloatData()
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	anyExtra := false
	for _, r := range rows {
		if r.KeepOptimistic > r.KeepFallback {
			t.Errorf("%s: optimistic keeps more than fallback", r.App)
		}
		if r.KeepOptimistic < r.KeepFallback {
			anyExtra = true
		}
	}
	if !anyExtra {
		t.Error("no app shows extra optimistic debloating")
	}
	if s := serialSession(Options{}).ExtDebloat(); !strings.Contains(s, "debloating") {
		t.Error("rendering incomplete")
	}
}

func TestExtGraded(t *testing.T) {
	rows := serialSession(Options{}).ExtGradedData()
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Levels["Kaleidoscope"] > r.Levels["Baseline"]+1e-9 {
			t.Errorf("%s: full level looser than baseline", r.App)
		}
	}
	if s := serialSession(Options{}).ExtGraded(); !strings.Contains(s, "degradation") {
		t.Error("rendering incomplete")
	}
}

func TestExtIncremental(t *testing.T) {
	s := ExtIncremental()
	for _, want := range []string{"1 violation(s), 1 incremental restore(s)", "2 invariants still assumed"} {
		if !strings.Contains(s, want) {
			t.Errorf("incremental demo missing %q:\n%s", want, s)
		}
	}
}

func TestWriteCSVs(t *testing.T) {
	dir := t.TempDir()
	data := serialSession(Options{}).AnalyzeAll()[:2] // two apps suffice for the format check
	if err := WriteCSVs(dir, data); err != nil {
		t.Fatalf("WriteCSVs: %v", err)
	}
	for _, name := range []string{"table3.csv", "pts_mbedtls.csv", "cfi_mbedtls.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) < 2 {
			t.Errorf("%s has %d lines", name, len(lines))
		}
		if !strings.Contains(lines[0], "Kaleidoscope") && !strings.Contains(lines[0], "Kaleidoscope_count") {
			t.Errorf("%s header = %q", name, lines[0])
		}
	}
	// pts file has one row per population pointer plus header.
	b, _ := os.ReadFile(filepath.Join(dir, "pts_mbedtls.csv"))
	rows := strings.Count(strings.TrimSpace(string(b)), "\n")
	if want := len(data[0].Systems["Baseline"].Population()); rows != want {
		t.Errorf("pts rows = %d, want %d", rows, want)
	}
}
