package interp

import (
	"testing"

	"repro/internal/minic"
)

func TestRunsAreIsolated(t *testing.T) {
	src := `
int counter;
int main() {
  counter = counter + 1;
  return counter;
}
`
	m := minic.MustCompile("iso", src)
	mc := New(m, Config{})
	for i := 0; i < 3; i++ {
		tr := mc.Run("main", nil)
		if tr.Err != nil {
			t.Fatalf("run %d: %v", i, tr.Err)
		}
		if tr.Result != 1 {
			t.Fatalf("run %d: result = %d; globals leaked across runs", i, tr.Result)
		}
	}
}

func TestMissingEntryFunction(t *testing.T) {
	m := minic.MustCompile("x", "int main() { return 0; }")
	tr := New(m, Config{}).Run("nonexistent", nil)
	if tr.Err == nil {
		t.Fatal("missing entry did not error")
	}
}

func TestExtraAndMissingCallArguments(t *testing.T) {
	// Indirect calls are signature-erased: the callee may receive fewer
	// arguments than it declares (missing params default to 0).
	src := `
int two(int* a, int* b) {
  if (b == null) { return 1; }
  return 2;
}
int main() {
  fn f;
  f = &two;
  return f(null);
}
`
	m := minic.MustCompile("args", src)
	tr := New(m, Config{}).Run("main", nil)
	if tr.Err != nil || tr.Result != 1 {
		t.Fatalf("result = %d, err = %v; want 1", tr.Result, tr.Err)
	}
}

func TestBranchBuckets(t *testing.T) {
	src := `
int main() {
  int i;
  int n;
  n = input();
  i = 0;
  while (i < n) {
    i = i + 1;
  }
  return i;
}
`
	m := minic.MustCompile("bb", src)
	short := New(m, Config{}).Run("main", []int64{1})
	long := New(m, Config{}).Run("main", []int64{9})
	sb := short.BranchBuckets()
	lb := long.BranchBuckets()
	if len(sb) == 0 || len(lb) == 0 {
		t.Fatal("no buckets")
	}
	grew := false
	for e, b := range lb {
		if b > sb[e] {
			grew = true
		}
	}
	if !grew {
		t.Error("longer run produced no higher hit bucket")
	}
}

func TestMemOpsCounted(t *testing.T) {
	src := `
int g;
int main() {
  int* p;
  p = &g;
  *p = 1;
  return *p;
}
`
	m := minic.MustCompile("mem", src)
	tr := New(m, Config{}).Run("main", nil)
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	// At least the explicit store+load plus the alloca traffic.
	if tr.MemOps < 2 {
		t.Errorf("MemOps = %d, want >= 2", tr.MemOps)
	}
}

func TestAnalysisSlotMapping(t *testing.T) {
	src := `
struct s { int a; int arr[4]; int* p; }
s g;
int target;
int main() {
  int i;
  i = 0;
  while (i < 4) {
    g.arr[i] = i;
    i = i + 1;
  }
  g.p = &target;
  return 0;
}
`
	m := minic.MustCompile("slots", src)
	tr := New(m, Config{TrackPointsTo: true}).Run("main", nil)
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	// The pointer stored into g.p must be recorded at analysis slot 2
	// (a=0, arr[]=1, p=2), regardless of arr's runtime expansion.
	pt := SlotPt{Obj: m.Global("g").Obj, Slot: 2}
	if !tr.SlotPoints[pt][m.Global("target").Obj] {
		t.Errorf("slot mapping wrong: %v", tr.SlotPoints)
	}
}

func TestDynamicHeapSizing(t *testing.T) {
	// malloc(n) slabs are sized by the runtime argument.
	src := `
int main() {
  int* p;
  p = malloc(100);
  p[30] = 7;
  return p[30];
}
`
	m := minic.MustCompile("hs", src)
	tr := New(m, Config{}).Run("main", nil)
	if tr.Err != nil || tr.Result != 7 {
		t.Fatalf("result = %d, err = %v", tr.Result, tr.Err)
	}
	// Accessing beyond the dynamic size faults.
	src2 := `
int main() {
  int* p;
  p = malloc(8);
  p[30] = 7;
  return 0;
}
`
	m2 := minic.MustCompile("hs2", src2)
	if tr := New(m2, Config{}).Run("main", nil); tr.Err == nil {
		t.Fatal("expected out-of-bounds beyond dynamic size")
	}
	// Non-positive sizes fall back to the default slab (heapSlots).
	src3 := `
int main() {
  int* p;
  p = malloc(input());
  p[3] = 9;
  return p[3];
}
`
	m3 := minic.MustCompile("hs3", src3)
	if tr := New(m3, Config{}).Run("main", []int64{0}); tr.Err != nil || tr.Result != 9 {
		t.Fatalf("fallback slab: result = %d, err = %v", tr.Result, tr.Err)
	}
}

func TestNegativeIndexFaults(t *testing.T) {
	src := `
int buf[4];
int main() {
  int i;
  i = input();
  return buf[i];
}
`
	m := minic.MustCompile("neg", src)
	tr := New(m, Config{}).Run("main", []int64{-1})
	if tr.Err == nil {
		t.Fatal("negative index did not fault")
	}
}

func TestObservedTargetsSorted(t *testing.T) {
	src := `
int b(int* x) { return 1; }
int a(int* x) { return 2; }
int main() {
  fn f;
  int r;
  int i;
  r = 0;
  i = 0;
  while (i < 2) {
    f = &b;
    if (i == 1) {
      f = &a;
    }
    r = r + f(null);
    i = i + 1;
  }
  return r;
}
`
	m := minic.MustCompile("obs", src)
	tr := New(m, Config{}).Run("main", nil)
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	for site := range tr.ICallObserved {
		got := tr.ObservedTargets(site)
		if len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Errorf("ObservedTargets = %v, want sorted [a b]", got)
		}
	}
}
