package interp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
)

func run(t *testing.T, src string, inputs []int64) *Trace {
	t.Helper()
	m, err := minic.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return New(m, Config{TrackPointsTo: true}).Run("main", inputs)
}

func mustResult(t *testing.T, src string, inputs []int64, want int64) *Trace {
	t.Helper()
	tr := run(t, src, inputs)
	if tr.Err != nil {
		t.Fatalf("run error: %v", tr.Err)
	}
	if tr.Result != want {
		t.Fatalf("result = %d, want %d", tr.Result, want)
	}
	return tr
}

func TestArithmeticAndControlFlow(t *testing.T) {
	src := `
int main() {
  int i;
  int sum;
  i = 0;
  sum = 0;
  while (i < 10) {
    if (i % 2 == 0) {
      sum = sum + i;
    }
    i = i + 1;
  }
  return sum;
}
`
	mustResult(t, src, nil, 20)
}

func TestRecursion(t *testing.T) {
	src := `
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() { return fib(10); }
`
	mustResult(t, src, nil, 55)
}

func TestPointersAndGlobals(t *testing.T) {
	src := `
int g;
int main() {
  int* p;
  int** q;
  p = &g;
  q = &p;
  **q = 41;
  g = g + 1;
  return *p;
}
`
	mustResult(t, src, nil, 42)
}

func TestStructFieldsAndHeap(t *testing.T) {
	src := `
struct node { int val; node* next; }
int main() {
  node* a;
  node* b;
  a = malloc(sizeof(node));
  b = malloc(sizeof(node));
  a->val = 10;
  a->next = b;
  b->val = 32;
  b->next = null;
  return a->val + a->next->val;
}
`
	mustResult(t, src, nil, 42)
}

func TestArraysAreElementDistinct(t *testing.T) {
	src := `
int table[8];
int main() {
  int i;
  i = 0;
  while (i < 8) {
    table[i] = i * i;
    i = i + 1;
  }
  return table[3] + table[5];
}
`
	mustResult(t, src, nil, 34)
}

func TestFunctionPointerArrayDispatch(t *testing.T) {
	src := `
struct cmd { fn exec; }
cmd table[3];
int op0(int* x) { return 100; }
int op1(int* x) { return 200; }
int op2(int* x) { return 300; }
int main() {
  table[0].exec = &op0;
  table[1].exec = &op1;
  table[2].exec = &op2;
  return table[input()].exec(null);
}
`
	mustResult(t, src, []int64{1}, 200)
	mustResult(t, src, []int64{2}, 300)
}

func TestInputOutput(t *testing.T) {
	src := `
int main() {
  int a;
  int b;
  a = input();
  b = input();
  output(a + b);
  output(a * b);
  return 0;
}
`
	tr := mustResult(t, src, []int64{6, 7}, 0)
	if len(tr.Outputs) != 2 || tr.Outputs[0] != 13 || tr.Outputs[1] != 42 {
		t.Fatalf("outputs = %v", tr.Outputs)
	}
}

func TestInputExhaustionYieldsZero(t *testing.T) {
	src := `int main() { return input() + input(); }`
	mustResult(t, src, []int64{5}, 5)
}

func TestPointerArithmeticRuntime(t *testing.T) {
	src := `
int buf[10];
int main() {
  char* p;
  int i;
  p = buf;
  i = input();
  *(p + i) = 77;
  return buf[i];
}
`
	mustResult(t, src, []int64{4}, 77)
}

func TestStructCopySemantics(t *testing.T) {
	src := `
struct pair { int a; int b; }
int main() {
  pair x;
  pair y;
  x.a = 40;
  x.b = 2;
  y = x;
  x.a = 0;
  return y.a + y.b;
}
`
	mustResult(t, src, nil, 42)
}

func TestNullDereferenceFaults(t *testing.T) {
	src := `
int main() {
  int* p;
  p = null;
  return *p;
}
`
	tr := run(t, src, nil)
	var re *RuntimeError
	if !errors.As(tr.Err, &re) || !strings.Contains(re.Msg, "invalid pointer") {
		t.Fatalf("err = %v, want invalid-pointer fault", tr.Err)
	}
}

func TestOutOfBoundsFaults(t *testing.T) {
	src := `
int buf[4];
int main() {
  char* p;
  p = buf;
  *(p + 99) = 1;
  return 0;
}
`
	tr := run(t, src, nil)
	var re *RuntimeError
	if !errors.As(tr.Err, &re) || !strings.Contains(re.Msg, "out-of-bounds") {
		t.Fatalf("err = %v, want out-of-bounds fault", tr.Err)
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	src := `int main() { return 3 / input(); }`
	tr := run(t, src, []int64{0})
	var re *RuntimeError
	if !errors.As(tr.Err, &re) || !strings.Contains(re.Msg, "division by zero") {
		t.Fatalf("err = %v, want division fault", tr.Err)
	}
}

func TestStepLimit(t *testing.T) {
	src := `int main() { while (1) { } return 0; }`
	m := minic.MustCompile("loop", src)
	tr := New(m, Config{StepLimit: 1000}).Run("main", nil)
	var re *RuntimeError
	if !errors.As(tr.Err, &re) || !strings.Contains(re.Msg, "step limit") {
		t.Fatalf("err = %v, want step limit", tr.Err)
	}
}

func TestStackDepthLimit(t *testing.T) {
	src := `
int f(int n) { return f(n + 1); }
int main() { return f(0); }
`
	m := minic.MustCompile("deep", src)
	tr := New(m, Config{}).Run("main", nil)
	var re *RuntimeError
	if !errors.As(tr.Err, &re) || !strings.Contains(re.Msg, "depth limit") {
		t.Fatalf("err = %v, want depth limit", tr.Err)
	}
}

func TestICallThroughNonFunctionFaults(t *testing.T) {
	src := `
int main() {
  fn f;
  f = null;
  return f();
}
`
	tr := run(t, src, nil)
	var re *RuntimeError
	if !errors.As(tr.Err, &re) || !strings.Contains(re.Msg, "non-function") {
		t.Fatalf("err = %v, want non-function fault", tr.Err)
	}
}

func TestBranchCoverage(t *testing.T) {
	src := `
int main() {
  if (input() > 0) {
    return 1;
  }
  return 0;
}
`
	tr := run(t, src, []int64{5})
	exec, total := tr.BranchCoverage()
	if total != 2 {
		t.Fatalf("total branches = %d, want 2", total)
	}
	if exec != 1 {
		t.Fatalf("executed branches = %d, want 1", exec)
	}
	tr2 := run(t, src, []int64{-5})
	tr.Merge(tr2)
	exec, _ = tr.BranchCoverage()
	if exec != 2 {
		t.Fatalf("merged executed branches = %d, want 2", exec)
	}
}

func TestICallObservation(t *testing.T) {
	src := `
struct ops { fn f; }
ops g;
int a(int* x) { return 1; }
int b(int* x) { return 2; }
int main() {
  if (input()) {
    g.f = &a;
  } else {
    g.f = &b;
  }
  return g.f(null);
}
`
	m := minic.MustCompile("icall", src)
	mc := New(m, Config{TrackPointsTo: true})
	tr := mc.Run("main", []int64{1})
	tr.Merge(mc.Run("main", []int64{0}))
	var site int
	for _, f := range m.Funcs {
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			if _, ok := in.(*ir.ICall); ok {
				site = ir.InstrID(in)
			}
		})
	}
	got := tr.ObservedTargets(site)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("observed targets = %v", got)
	}
}

func TestDynamicSlotPoints(t *testing.T) {
	src := `
struct holder { int* p; int* q; }
holder g;
int x;
int y;
int main() {
  g.p = &x;
  g.q = &y;
  return 0;
}
`
	m := minic.MustCompile("test", src)
	tr := New(m, Config{TrackPointsTo: true}).Run("main", nil)
	g := m.Global("g").Obj
	slot0 := tr.SlotPoints[SlotPt{Obj: g, Slot: 0}]
	slot1 := tr.SlotPoints[SlotPt{Obj: g, Slot: 1}]
	if len(slot0) != 1 || !slot0[m.Global("x").Obj] {
		t.Errorf("slot0 = %v", slot0)
	}
	if len(slot1) != 1 || !slot1[m.Global("y").Obj] {
		t.Errorf("slot1 = %v", slot1)
	}
}

// hook recorder for instrumentation tests.
type recHooks struct {
	ptrAdds   []int
	fields    []int
	ctxCalls  []int
	ctxChecks []int
	icalls    []string
	allow     bool
}

func (h *recHooks) PtrAdd(site int, base Value)         { h.ptrAdds = append(h.ptrAdds, site) }
func (h *recHooks) FieldAddr(site int, base, res Value) { h.fields = append(h.fields, site) }
func (h *recHooks) CtxCall(site int, args []Value)      { h.ctxCalls = append(h.ctxCalls, site) }
func (h *recHooks) CtxCheck(site int, vals []Value)     { h.ctxChecks = append(h.ctxChecks, site) }
func (h *recHooks) CheckICall(site int, tg string) bool {
	h.icalls = append(h.icalls, tg)
	return h.allow
}

func TestHooksFireAtInstrumentedSites(t *testing.T) {
	src := `
struct s { int a; fn f; }
s g;
int buf[4];
int cb(int* x) { return 7; }
int main() {
  char* p;
  int i;
  g.f = &cb;
  p = buf;
  i = input();
  *(p + i) = 1;
  return g.f(null);
}
`
	m := minic.MustCompile("hooks", src)
	var ptrAddSite, fieldSite int
	for _, f := range m.Funcs {
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			switch in.(type) {
			case *ir.PtrAdd:
				ptrAddSite = ir.InstrID(in)
			case *ir.FieldAddr:
				fieldSite = ir.InstrID(in)
			}
		})
	}
	h := &recHooks{allow: true}
	ins := &Instrumentation{
		PtrAddSites: map[int]bool{ptrAddSite: true},
		FieldSites:  map[int]bool{fieldSite: true},
		CheckICalls: true,
	}
	tr := Compile(m, ins).NewMachine(Config{Hooks: h}).Run("main", []int64{2})
	if tr.Err != nil {
		t.Fatalf("run: %v", tr.Err)
	}
	if len(h.ptrAdds) != 1 || h.ptrAdds[0] != ptrAddSite {
		t.Errorf("ptradd hooks = %v", h.ptrAdds)
	}
	if len(h.fields) != 1 {
		t.Errorf("field hooks = %v", h.fields)
	}
	if len(h.icalls) != 1 || h.icalls[0] != "cb" {
		t.Errorf("icall hooks = %v", h.icalls)
	}
	if tr.MonitorsExecuted() != 2 {
		t.Errorf("monitors executed = %d, want 2", tr.MonitorsExecuted())
	}
	if ins.NumMonitorSites() != 2 {
		t.Errorf("monitor sites = %d, want 2", ins.NumMonitorSites())
	}
}

func TestCFIBlockDenies(t *testing.T) {
	src := `
int cb(int* x) { return 7; }
int main() {
  fn f;
  f = &cb;
  return f(null);
}
`
	m := minic.MustCompile("cfi", src)
	h := &recHooks{allow: false}
	tr := Compile(m, &Instrumentation{CheckICalls: true}).NewMachine(Config{Hooks: h}).Run("main", nil)
	var cv *CFIViolation
	if !errors.As(tr.Err, &cv) || cv.Target != "cb" {
		t.Fatalf("err = %v, want CFI violation on cb", tr.Err)
	}
}

func TestValueSemantics(t *testing.T) {
	o := &RObj{objInfo: &objInfo{name: "o"}, Slots: make([]Value, 2)}
	if !IntVal(0).IsNull() || IntVal(1).IsNull() || PtrVal(o, 0).IsNull() {
		t.Error("IsNull wrong")
	}
	if IntVal(0).Truthy() || !IntVal(-1).Truthy() || !PtrVal(o, 1).Truthy() || !FnVal("f").Truthy() {
		t.Error("Truthy wrong")
	}
	if !PtrVal(o, 1).Equal(PtrVal(o, 1)) || PtrVal(o, 1).Equal(PtrVal(o, 0)) {
		t.Error("pointer equality wrong")
	}
	if PtrVal(o, 0).Equal(IntVal(0)) {
		t.Error("live pointer equals null")
	}
	if !FnVal("f").Equal(FnVal("f")) || FnVal("f").Equal(FnVal("g")) {
		t.Error("fn equality wrong")
	}
}
