package interp

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
)

// TestDepthLimitAcrossStackGrowth recurses to the default depth limit with
// frames large enough that the register stack grows several times on the
// way down. The run must still fault with the depth-limit error, after
// exactly the steps the interpreter has always taken to reach it.
func TestDepthLimitAcrossStackGrowth(t *testing.T) {
	src := `
int f(int n) {
  int a; int b; int c; int d;
  a = n + 1; b = a + 1; c = b + 1; d = c + 1;
  return f(d);
}
int main() { return f(0); }
`
	mc := New(minic.MustCompile("deep", src), Config{})
	tr := mc.Run("main", nil)
	if tr.Err == nil || tr.Err.Error() != "interp: #0: call-stack depth limit exceeded" {
		t.Fatalf("err = %v, want the call-stack depth limit", tr.Err)
	}
	if tr.Steps != 10733 {
		t.Errorf("steps = %d, want 10733", tr.Steps)
	}
	if len(mc.stack) < 4*initialStack {
		t.Errorf("register stack holds %d registers; the test wants it grown at least twice past %d", len(mc.stack), initialStack)
	}
	// The machine is reusable after the fault, and the next run starts
	// from an empty stack.
	if tr2 := mc.Run("main", nil); tr2.Steps != tr.Steps || tr2.Err.Error() != tr.Err.Error() {
		t.Errorf("second run: steps %d, err %v; want %d, %v", tr2.Steps, tr2.Err, tr.Steps, tr.Err)
	}
}

// TestRecursionAcrossStackGrowth returns through 300 frames that the
// register stack grew under: every caller reads its registers again after
// its callee returns, so a frame that lost its values in the move shows.
func TestRecursionAcrossStackGrowth(t *testing.T) {
	src := `
int f(int n) {
  int a; int b; int c; int d;
  a = n + 1; b = a * 2; c = b + 3; d = c - 1;
  if (n >= 300) {
    return 0;
  }
  return f(n + 1) + a + b + c + d;
}
int main() { return f(0); }
`
	mc := New(minic.MustCompile("grow", src), Config{})
	tr := mc.Run("main", nil)
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	// Level n adds a+b+c+d = 7n+12, for n = 0..299.
	if want := int64(7*299*300/2 + 12*300); tr.Result != want {
		t.Errorf("result = %d, want %d", tr.Result, want)
	}
	if len(mc.stack) <= initialStack {
		t.Errorf("register stack never grew past %d registers", initialStack)
	}
}

// TestFrameReadsZeroBeforeWrite hand-builds KIR whose probe function reads
// two registers before any instruction writes them. Its frame reuses the
// stack region an earlier call, dirty, left an integer and a pointer in;
// the reads must still see integer 0.
func TestFrameReadsZeroBeforeWrite(t *testing.T) {
	m := &ir.Module{Name: "frames"}
	// dirty's registers: %a=0, %p=1, %b=2.
	m.AddFunc(&ir.Function{Name: "dirty", RetType: ir.Int, Blocks: []*ir.Block{{Name: "entry", Instrs: []ir.Instr{
		&ir.Const{Dest: "%a", Val: 41},
		&ir.Alloca{Dest: "%p", Ty: ir.Int, Var: "x"},
		&ir.Const{Dest: "%b", Val: 42},
		&ir.Ret{Src: "%a"},
	}}}})
	// probe's registers: %r=0, %u=1 (dirty's %p), %v=2 (dirty's %b). The
	// never-run block defines %u and %v so the module validates.
	m.AddFunc(&ir.Function{Name: "probe", RetType: ir.Int, Blocks: []*ir.Block{
		{Name: "entry", Instrs: []ir.Instr{
			&ir.BinOp{Dest: "%r", Op: ir.OpAdd, A: "%u", B: "%v"},
			&ir.Output{Src: "%v"},
			&ir.Ret{Src: "%r"},
		}},
		{Name: "never", Instrs: []ir.Instr{
			&ir.Const{Dest: "%u", Val: 5},
			&ir.Const{Dest: "%v", Val: 6},
			&ir.Ret{Src: "%u"},
		}},
	}})
	m.AddFunc(&ir.Function{Name: "main", RetType: ir.Int, Blocks: []*ir.Block{{Name: "entry", Instrs: []ir.Instr{
		&ir.Call{Dest: "%x", Callee: "dirty"},
		&ir.Call{Dest: "%y", Callee: "probe"},
		&ir.Ret{Src: "%y"},
	}}}})
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	tr := New(m, Config{}).Run("main", nil)
	if tr.Err != nil {
		t.Fatalf("run: %v (a register read before its write saw a stale value)", tr.Err)
	}
	if tr.Result != 0 || len(tr.Outputs) != 1 || tr.Outputs[0] != 0 {
		t.Errorf("result %d, outputs %v; want 0 and [0]", tr.Result, tr.Outputs)
	}
}

// TestFnValSemantics pins what a function pointer renders as and compares
// equal to, whether FnVal made it or a program did: the program's values
// carry a shared function object and index instead of a name.
func TestFnValSemantics(t *testing.T) {
	src := `
int cb(int* x) { return 7; }
int other(int* x) { return 8; }
int main() { return 0; }
`
	m := minic.MustCompile("fns", src)
	p := Compile(m, nil)
	cf := p.byName["cb"]
	prog := Value{Kind: KindFn, Obj: cf.obj, Off: cf.idx}
	for i, v := range []Value{FnVal("cb"), prog} {
		if got := v.String(); got != "&cb" {
			t.Errorf("String = %q, want &cb", got)
		}
		wantID := []int{-1, m.Func("cb").Obj}[i] // FnVal is made outside the program
		if v.Obj.ID != wantID || v.Obj.Key() != "cb()" {
			t.Errorf("object %d %q; want %d cb()", v.Obj.ID, v.Obj.Key(), wantID)
		}
		if !v.Equal(FnVal("cb")) || !FnVal("cb").Equal(v) || !v.Equal(prog) {
			t.Errorf("%v does not equal the other pointers to cb", v)
		}
		if v.Equal(FnVal("other")) || v.Equal(IntVal(0)) || !v.Truthy() || v.IsNull() {
			t.Errorf("%v: wrong comparison with another function, null or truth", v)
		}
		if got := p.funcOf(v); got != cf {
			t.Errorf("funcOf(%v) = %v, want cb", v, got)
		}
	}
	if p.funcOf(FnVal("missing")) != nil {
		t.Error("funcOf resolved a function the program lacks")
	}
}
