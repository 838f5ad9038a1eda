package core

import (
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/invariant"
)

// paViolationSrc violates the PA likely invariant at runtime when the first
// input is non-zero: the arithmetic pointer then really does address a
// struct object, and *(p+i) overwrites its function-pointer field.
const paViolationSrc = `
struct plugin { fn handler; int* data; }
plugin mod;
int buff[16];

int good(int* x) { return 1; }
int evil(int* x) { return 666; }

void smear(char* s, fn v) {
  int i;
  i = input();
  *(s + i) = v;
}

int main() {
  char* p;
  fn e;
  mod.handler = &good;
  e = &evil;
  p = buff;
  if (input()) {
    p = &mod;
  }
  smear(p, e);
  return mod.handler(null);
}
`

func analyzeSrc(t *testing.T, src string, cfg invariant.Config) *System {
	t.Helper()
	s, err := AnalyzeSource("test", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAnalyzeBaselineAliasesFallback(t *testing.T) {
	s := analyzeSrc(t, paViolationSrc, invariant.Config{})
	if s.Optimistic != s.Fallback {
		t.Error("baseline system should alias optimistic to fallback")
	}
	if len(s.Invariants()) != 0 {
		t.Error("baseline assumed invariants")
	}
}

func TestHardenedRunWithoutViolation(t *testing.T) {
	s := analyzeSrc(t, paViolationSrc, invariant.All())
	h := s.Harden()
	e := h.NewExecution(true)
	// input()=0: p stays on buff; offset 3 is a harmless array write.
	tr := e.Run("main", []int64{0, 3})
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	if tr.Result != 1 {
		t.Fatalf("result = %d, want 1 (good handler)", tr.Result)
	}
	if e.Switcher.Switched() {
		t.Fatalf("view switched without invariant violation: %v", e.Switcher.Violations())
	}
	if e.Runtime.ChecksPerformed == 0 {
		t.Error("no monitor checks performed")
	}
	if e.Runtime.CFILookups == 0 {
		t.Error("no CFI lookups performed")
	}
	// Optimistic soundness holds on violation-free runs.
	if bad := SoundnessReport(s.Optimistic, tr); len(bad) != 0 {
		t.Errorf("optimistic result unsound on clean run:\n%v", bad)
	}
}

func TestHardenedRunWithViolationSwitchesAndStaysSound(t *testing.T) {
	s := analyzeSrc(t, paViolationSrc, invariant.All())
	h := s.Harden()

	// The optimistic view must be strictly tighter than the fallback on the
	// indirect callsite (evil only reachable per the imprecise analysis).
	site := h.Optimistic.Sites[0]
	if h.Optimistic.Permits(site, "evil") {
		t.Fatalf("optimistic policy permits evil: %v", h.Optimistic.Targets[site])
	}
	if !h.Fallback.Permits(site, "evil") {
		t.Fatalf("fallback policy misses evil: %v", h.Fallback.Targets[site])
	}

	e := h.NewExecution(true)
	// input()=1: p = &mod; offset 0 overwrites mod.handler with evil.
	tr := e.Run("main", []int64{1, 0})
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	if !e.Switcher.Switched() {
		t.Fatal("PA violation did not switch the memory view")
	}
	vs := e.Switcher.Violations()
	if len(vs) == 0 || vs[0].Kind != invariant.PA {
		t.Fatalf("violations = %v, want PA", vs)
	}
	// The overwritten handler (evil) executed under the fallback view.
	if tr.Result != 666 {
		t.Fatalf("result = %d, want 666 under fallback view", tr.Result)
	}
	// The fallback result must be sound for this run.
	if bad := SoundnessReport(s.Fallback, tr); len(bad) != 0 {
		t.Errorf("fallback result unsound:\n%v", bad)
	}
}

func TestViolationRunBlockedWithoutSwitch(t *testing.T) {
	// If the memory view were NOT switched (monitors disabled), the tight
	// optimistic policy must block the hijacked call: this demonstrates why
	// the fallback mechanism is required for soundness.
	s := analyzeSrc(t, paViolationSrc, invariant.All())
	h := s.Harden()
	e := h.NewExecution(false)
	// Disable the PA monitor by removing its instrumentation: rebuild an
	// execution whose instrumentation lacks PtrAdd sites.
	mc := interp.Compile(s.Module, &interp.Instrumentation{CheckICalls: true}).NewMachine(interp.Config{
		Hooks: staticHooks{policy: h.Optimistic.Targets},
	})
	tr := mc.Run("main", []int64{1, 0})
	var cv *interp.CFIViolation
	if !errors.As(tr.Err, &cv) || cv.Target != "evil" {
		t.Fatalf("err = %v, want CFI violation on evil", tr.Err)
	}
	_ = e
}

// staticHooks enforces a fixed policy with no view switching.
type staticHooks struct {
	policy map[int][]string
}

func (h staticHooks) PtrAdd(int, interp.Value)                  {}
func (h staticHooks) FieldAddr(int, interp.Value, interp.Value) {}
func (h staticHooks) CtxCall(int, []interp.Value)               {}
func (h staticHooks) CtxCheck(int, []interp.Value)              {}
func (h staticHooks) CheckICall(site int, target string) bool {
	for _, t := range h.policy[site] {
		if t == target {
			return true
		}
	}
	return false
}

// ctxViolationSrc violates the Ctx likely invariant: the helper redirects
// its precision-critical argument before the critical store when input()!=0.
const ctxViolationSrc = `
struct holder { int n; int** slot; }
holder h1;
holder h2;
int* s1[2];
int* s2[2];
int v1;
int v2;
holder sneaky;
int* s3[2];

void insert(holder* b, int* v) {
  if (input()) {
    b = &sneaky;
  }
  b->slot[0] = v;
}

int main() {
  h1.slot = s1;
  h2.slot = s2;
  sneaky.slot = s3;
  insert(&h1, &v1);
  insert(&h2, &v2);
  return 0;
}
`

func TestCtxViolationSwitches(t *testing.T) {
	s := analyzeSrc(t, ctxViolationSrc, invariant.Config{Ctx: true})
	if n := len(s.Invariants()); n == 0 {
		t.Skip("no ctx invariant detected for this pattern")
	}
	h := s.Harden()

	// Clean run: no redirection.
	e := h.NewExecution(true)
	tr := e.Run("main", []int64{0, 0})
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	if e.Switcher.Switched() {
		t.Fatalf("clean run switched views: %v", e.Switcher.Violations())
	}
	if bad := SoundnessReport(s.Optimistic, tr); len(bad) != 0 {
		t.Errorf("optimistic unsound on clean run:\n%v", bad)
	}

	// Violating run: the helper redirects b to &sneaky.
	e2 := h.NewExecution(true)
	tr2 := e2.Run("main", []int64{1, 0})
	if tr2.Err != nil {
		t.Fatalf("run: %v", tr2.Err)
	}
	if !e2.Switcher.Switched() {
		t.Fatal("ctx violation did not switch views")
	}
	if vs := e2.Switcher.Violations(); vs[0].Kind != invariant.Ctx {
		t.Fatalf("violations = %v, want Ctx", vs)
	}
	if bad := SoundnessReport(s.Fallback, tr2); len(bad) != 0 {
		t.Errorf("fallback unsound on violating run:\n%v", bad)
	}
}

func TestAblationConfigsAllAnalyze(t *testing.T) {
	for _, cfg := range invariant.Ablations() {
		s := analyzeSrc(t, paViolationSrc, cfg)
		if s.Fallback == nil || s.Optimistic == nil {
			t.Fatalf("%s: missing results", cfg.Name())
		}
		// Population sizes must be comparable across configs.
		if got, want := len(s.Sizes(s.Optimistic)), len(s.Population()); got != want {
			t.Errorf("%s: sizes length %d != population %d", cfg.Name(), got, want)
		}
	}
}

func TestPrecisionMetricsShrink(t *testing.T) {
	s := analyzeSrc(t, paViolationSrc, invariant.All())
	base := s.Sizes(s.Fallback)
	opt := s.Sizes(s.Optimistic)
	var bSum, oSum int
	for i := range base {
		bSum += base[i]
		oSum += opt[i]
		if opt[i] > base[i] {
			t.Errorf("pointer %v: optimistic size %d > baseline %d", s.Population()[i], opt[i], base[i])
		}
	}
	if oSum >= bSum {
		t.Errorf("no precision gain: optimistic %d >= baseline %d", oSum, bSum)
	}
}
