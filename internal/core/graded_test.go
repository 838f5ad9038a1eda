package core

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/minic"
)

// gradedSrc has two independent invariant-violation triggers: input #1
// drives the PA violation (arithmetic pointer really addresses a struct),
// input #2 drives the Ctx violation (the helper redirects its critical
// argument).
const gradedSrc = `
struct disp { fn handler; int* state; }
struct holder { int n; int** slot; }
disp d1;
holder h1;
holder h2;
holder sneaky;
int* s1[2];
int* s2[2];
int* s3[2];
int buff[16];
int v1;
int v2;

int normal_op(int* x) { return 1; }
int rare_op(int* x) { return 2; }

void patch(char* region, fn op, int off) {
  *(region + off) = op;
}

void insert(holder* b, int* v, int redirect) {
  if (redirect) {
    b = &sneaky;
  }
  b->slot[0] = v;
}

int main() {
  char* region;
  fn op;
  int paTrigger;
  int ctxTrigger;
  paTrigger = input();
  ctxTrigger = input();
  h1.slot = s1;
  h2.slot = s2;
  sneaky.slot = s3;
  d1.handler = &normal_op;
  op = &rare_op;
  region = buff;
  if (paTrigger) {
    region = &d1;
  }
  patch(region, op, 0);
  insert(&h1, &v1, ctxTrigger);
  insert(&h2, &v2, 0);
  return d1.handler(null);
}
`

func gradedSystem(t *testing.T) *GradedSystem {
	t.Helper()
	m, err := minic.Compile("graded", gradedSrc)
	if err != nil {
		t.Fatal(err)
	}
	return AnalyzeGraded(func(cfg invariant.Config) *System { return Analyze(m, cfg) })
}

func TestGradedCleanRunStaysFull(t *testing.T) {
	g := gradedSystem(t)
	e := g.NewExecution(false)
	tr := e.Run("main", []int64{0, 0})
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	if e.Controller.Active() != invariant.All() {
		t.Errorf("clean run degraded to %s", e.Controller.Active().Name())
	}
	if len(e.Controller.Violations()) != 0 {
		t.Errorf("violations: %v", e.Controller.Violations())
	}
	if e.Runtime.CFILookups == 0 {
		t.Error("no CFI lookups")
	}
}

func TestGradedSingleViolationDropsOnePolicy(t *testing.T) {
	g := gradedSystem(t)
	e := g.NewExecution(false)
	tr := e.Run("main", []int64{1, 0}) // PA violation only
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	got := e.Controller.Active()
	want := invariant.Config{Ctx: true, PWC: true}
	if got != want {
		t.Fatalf("active config = %s, want %s", got.Name(), want.Name())
	}
	if len(e.Controller.Transitions) != 1 || e.Controller.Transitions[0] != "Kd-Ctx-PWC" {
		t.Errorf("transitions = %v", e.Controller.Transitions)
	}
	// The degraded level still beats the full fallback on CFI tightness.
	full := g.Policies["Kaleidoscope"]
	level := g.Policies["Kd-Ctx-PWC"]
	base := g.Policies["Baseline"]
	if level.AvgTargets() > base.AvgTargets() {
		t.Errorf("degraded level looser than fallback: %.2f > %.2f", level.AvgTargets(), base.AvgTargets())
	}
	_ = full
}

func TestGradedTwoViolationsDropTwoPolicies(t *testing.T) {
	g := gradedSystem(t)
	e := g.NewExecution(false)
	tr := e.Run("main", []int64{1, 1}) // PA and Ctx violations
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	got := e.Controller.Active()
	// Ctx monitors only exist at levels where Ctx is assumed; after the PA
	// drop the active level is Kd-Ctx-PWC, whose Ctx monitor then fires.
	want := invariant.Config{PWC: true}
	if got != want {
		t.Fatalf("active config = %s, want %s (transitions %v)", got.Name(), want.Name(), e.Controller.Transitions)
	}
	if n := len(e.Controller.Violations()); n < 2 {
		t.Errorf("violations = %d, want >= 2", n)
	}
}

func TestGradedSoundnessAfterDegradation(t *testing.T) {
	g := gradedSystem(t)
	e := g.NewExecution(true)
	tr := e.Run("main", []int64{1, 1})
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	// The active level's own analysis must be sound for this run (its
	// remaining invariants were not violated).
	active := g.Systems[e.Controller.Active().Name()]
	if bad := SoundnessReport(active.Optimistic, tr); len(bad) != 0 {
		t.Errorf("active level unsound after degradation:\n%v", bad)
	}
	// And the ultimate fallback is of course sound too.
	if bad := SoundnessReport(g.Systems["Baseline"].Optimistic, tr); len(bad) != 0 {
		t.Errorf("fallback unsound:\n%v", bad)
	}
}

func TestGradedRepeatedViolationsAreIdempotent(t *testing.T) {
	g := gradedSystem(t)
	e := g.NewExecution(false)
	// Run the same violating input repeatedly within one execution context.
	for i := 0; i < 3; i++ {
		if tr := e.Run("main", []int64{1, 0}); tr.Err != nil {
			t.Fatalf("run %d: %v", i, tr.Err)
		}
	}
	if got := e.Controller.Active(); got != (invariant.Config{Ctx: true, PWC: true}) {
		t.Errorf("active = %s after repeated PA violations", got.Name())
	}
	if len(e.Controller.Transitions) != 1 {
		t.Errorf("transitions = %v, want a single degradation", e.Controller.Transitions)
	}
}

func TestGradedAnalyzeProducesAllLevels(t *testing.T) {
	g := gradedSystem(t)
	if len(g.Systems) != 8 || len(g.Policies) != 8 {
		t.Fatalf("levels = %d systems, %d policies", len(g.Systems), len(g.Policies))
	}
	for _, cfg := range invariant.Ablations() {
		if g.Systems[cfg.Name()] == nil || g.Policies[cfg.Name()] == nil {
			t.Errorf("missing level %s", cfg.Name())
		}
	}
}
