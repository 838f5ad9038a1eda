package core

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/invariant"
)

// The texts below name runtime objects in monitor violations, runtime
// errors and value renderings. They were captured before the abstract
// object identity moved to one number, and pin that the move changed no
// byte of what a user reads.

// paTextSrc lets the arithmetic pointer of main address a global, a stack
// and a typed heap struct, chosen by the first input (1, 2, 3); 0 keeps it
// on the array.
const paTextSrc = `
struct plugin { fn handler; int* data; }
plugin gmod;
int buff[16];

int good(int* x) { return 1; }

int main() {
  plugin smod;
  plugin* hmod;
  char* p;
  int k;
  hmod = malloc(sizeof(plugin));
  gmod.handler = &good;
  smod.handler = &good;
  hmod->handler = &good;
  p = buff;
  k = input();
  if (k == 1) {
    p = &gmod;
  }
  if (k == 2) {
    p = &smod;
  }
  if (k == 3) {
    p = hmod;
  }
  p = p + input();
  return 0;
}
`

func TestPAViolationTextPinned(t *testing.T) {
	h := analyzeSrc(t, paTextSrc, invariant.All()).Harden()
	for _, c := range []struct {
		in   []int64
		want string
	}{
		{[]int64{1, 0}, "pointer-arithmetic invariant violated at #46: arithmetic pointer refers to filtered object @gmod"},
		{[]int64{2, 0}, "pointer-arithmetic invariant violated at #46: arithmetic pointer refers to filtered object stack#3"},
		{[]int64{3, 0}, "pointer-arithmetic invariant violated at #46: arithmetic pointer refers to filtered object heap#7"},
	} {
		e := h.NewExecution(false)
		tr := e.Run("main", c.in)
		if tr.Err != nil {
			t.Fatalf("inputs %v: %v", c.in, tr.Err)
		}
		vs := e.Switcher.Violations()
		if len(vs) != 1 {
			t.Fatalf("inputs %v: violations %v, want one", c.in, vs)
		}
		if got := vs[0].String(); got != c.want {
			t.Errorf("inputs %v: violation %q, want %q", c.in, got, c.want)
		}
	}
}

// heapErrSrc reads past the end of an unnamed two-slot heap object.
const heapErrSrc = `
int main() {
  int* p;
  int n;
  n = input();
  p = malloc(n);
  return *(p + 5);
}
`

func TestHeapRuntimeErrorTextPinned(t *testing.T) {
	s := analyzeSrc(t, heapErrSrc, invariant.Config{})
	tr := interp.New(s.Module, interp.Config{}).Run("main", []int64{2})
	const want = "interp: #11: out-of-bounds load at heap#6+5 (size 2)"
	if tr.Err == nil || tr.Err.Error() != want {
		t.Errorf("error %v, want %q", tr.Err, want)
	}
}

// valueTextSrc hands pointers to a global, a stack object, a typed heap
// object and an untyped heap object to pointer arithmetic, then passes a
// function pointer to a call.
const valueTextSrc = `
struct pair { int a; int b; }
int g[4];

int cb(int x) { return x; }
void take(fn h) { }

int main() {
  int x[2];
  pair* hp;
  int* up;
  char* p;
  fn f;
  hp = malloc(sizeof(pair));
  up = malloc(input());
  p = g;
  p = p + 1;
  p = x;
  p = p + 1;
  p = hp;
  p = p + 1;
  p = up;
  p = p + 1;
  f = &cb;
  take(f);
  return 0;
}
`

// recordValues renders every PtrAdd base and call argument a run hands its
// hooks.
type recordValues struct {
	interp.NopHooks
	vals []string
}

func (r *recordValues) PtrAdd(site int, base interp.Value) {
	r.vals = append(r.vals, base.String())
}

func (r *recordValues) CtxCall(site int, args []interp.Value) {
	for _, v := range args {
		r.vals = append(r.vals, v.String())
	}
}

func TestValueTextPinned(t *testing.T) {
	s := analyzeSrc(t, valueTextSrc, invariant.Config{})
	ins := &interp.Instrumentation{PtrAddSites: map[int]bool{}, CtxCallArgs: map[int][]int{}}
	for id := 1; id <= s.Module.NumInstrs(); id++ {
		ins.PtrAddSites[id] = true
		ins.CtxCallArgs[id] = []int{0}
	}
	rec := &recordValues{}
	tr := interp.Compile(s.Module, ins).NewMachine(interp.Config{Hooks: rec}).Run("main", []int64{3})
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	want := []string{"&@g+0", "&main/x+0", "&heap#8+0", "&heap#11+0", "&cb"}
	if len(rec.vals) != len(want) {
		t.Fatalf("values %q, want %q", rec.vals, want)
	}
	for i := range want {
		if rec.vals[i] != want[i] {
			t.Errorf("value %d: %q, want %q", i, rec.vals[i], want[i])
		}
	}
}
