package core

import (
	"sync"
	"testing"

	"repro/internal/invariant"
	"repro/internal/memview"
	"repro/internal/minic"
)

// degradeSrc violates two invariants in one call when the input is
// non-zero: the PA invariant first (p really addresses the struct sobj),
// then the Ctx invariant (the callee redirects its critical argument b). The
// Ctx monitor recorded b's actual at the callsite, before the PA violation
// degraded anything, so only a degrade that keeps that record catches the
// redirect.
const degradeSrc = `
struct holder { int n; int** slot; }
struct pair { int a; int b; }
holder h1;
holder h2;
int* s1[2];
int* s2[2];
int v1;
int v2;
pair sobj;
int arr[4];

void insert(holder* b, int* v, int k) {
  char* p;
  p = arr;
  if (k) {
    p = &sobj;
  }
  *(p + 0) = 0;
  if (k) {
    b = &h2;
  }
  b->slot[0] = v;
}

int main() {
  int k;
  k = input();
  h1.slot = s1;
  h2.slot = s2;
  insert(&h1, &v1, 0);
  insert(&h2, &v2, 0);
  insert(&h1, &v1, k);
  return 0;
}
`

// violatedKinds returns the violations' sites by kind, in order.
func violatedKinds(vs []memview.Violation) map[invariant.Kind][]int {
	out := map[invariant.Kind][]int{}
	for _, v := range vs {
		out[v.Kind] = append(out[v.Kind], v.Site)
	}
	return out
}

// TestMonitorStateSurvivesDegrade: the §5 switch keeps every monitor
// running, so it records the PA violation and then the Ctx redirect. Both
// §8 fallbacks must catch the redirect too: degrading after the PA
// violation keeps the Ctx monitor's recorded actuals.
func TestMonitorStateSurvivesDegrade(t *testing.T) {
	m, err := minic.Compile("degrade", degradeSrc)
	if err != nil {
		t.Fatal(err)
	}
	s := Analyze(m, invariant.All())
	inputs := []int64{1}
	check := func(name string, vs []memview.Violation) map[invariant.Kind][]int {
		t.Helper()
		got := violatedKinds(vs)
		if len(got[invariant.PA]) == 0 || len(got[invariant.Ctx]) == 0 {
			t.Errorf("%s: violations %v, want the PA violation and the Ctx redirect", name, vs)
		}
		return got
	}

	e := s.Harden().NewExecution(false)
	if tr := e.Run("main", inputs); tr.Err != nil {
		t.Fatalf("switch: %v", tr.Err)
	}
	violated := check("switch", e.Switcher.Violations())

	ge := AnalyzeGraded(func(cfg invariant.Config) *System { return Analyze(m, cfg) }).NewExecution(false)
	if tr := ge.Run("main", inputs); tr.Err != nil {
		t.Fatalf("graded: %v", tr.Err)
	}
	check("graded", ge.Controller.Violations())
	if a := ge.Controller.Active(); a.PA || a.Ctx {
		t.Errorf("graded execution ends on %s, want a level without PA or Ctx (transitions %v)",
			a.Name(), ge.Controller.Transitions)
	}

	ie := s.NewIncrementalExecution(false)
	if tr := ie.Run("main", inputs); tr.Err != nil {
		t.Fatalf("incremental: %v", tr.Err)
	}
	check("incremental", ie.Controller.Violations)
	for _, rec := range ie.Controller.Result().Invariants() {
		for _, site := range violated[rec.Kind] {
			if rec.Site == site {
				t.Errorf("incremental result still assumes the violated %s record at #%d", rec.Kind, site)
			}
		}
	}
}

// TestHardenedExecutionsConcurrent: every execution of a Hardened reads its
// two policies and the optimistic result, and owns the rest, so executions
// may run at once (run under -race by make race). Each switcher ends in its
// own state: the violating runs on the fallback view, the clean ones on the
// optimistic view.
func TestHardenedExecutionsConcurrent(t *testing.T) {
	h := analyzeSrc(t, paViolationSrc, invariant.All()).Harden()
	var execs [4]*Execution
	var wg sync.WaitGroup
	for i := range execs {
		execs[i] = h.NewExecution(true)
		inputs, want := []int64{0, 3}, int64(1)
		if i%2 == 1 {
			inputs, want = []int64{1, 0}, 666
		}
		wg.Add(1)
		go func(e *Execution) {
			defer wg.Done()
			if tr := e.Run("main", inputs); tr.Err != nil || tr.Result != want {
				t.Errorf("run %v: result %d, err %v; want %d", inputs, tr.Result, tr.Err, want)
			}
		}(execs[i])
	}
	wg.Wait()
	for i, e := range execs {
		violating := i%2 == 1
		if e.Switcher.Switched() != violating || (len(e.Switcher.Violations()) > 0) != violating {
			t.Errorf("execution %d (violating %v): switched %v, violations %v",
				i, violating, e.Switcher.Switched(), e.Switcher.Violations())
		}
		view := h.Optimistic
		if violating {
			view = h.Fallback
		}
		if e.Switcher.Active() != view {
			t.Errorf("execution %d ends on the wrong view", i)
		}
	}
}
