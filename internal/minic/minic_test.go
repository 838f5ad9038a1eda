package minic

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := Compile("test", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return m
}

func compileErr(t *testing.T, src, wantSubstr string) {
	t.Helper()
	_, err := Compile("test", src)
	if err == nil {
		t.Fatalf("Compile succeeded, want error containing %q", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err, wantSubstr)
	}
}

// countInstr counts instructions of the same dynamic type as proto.
func countInstr[T ir.Instr](m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			if _, ok := in.(T); ok {
				n++
			}
		})
	}
	return n
}

// lexAll scans src to the end and returns its tokens, tokEOF last.
func lexAll(src string) ([]token, error) {
	l := lexer{src: src, line: 1}
	var toks []token
	for {
		tk := l.next()
		if l.err != nil {
			return nil, l.err
		}
		toks = append(toks, tk)
		if tk.kind == tokEOF {
			return toks, nil
		}
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := lexAll("int x; // comment\n/* block\ncomment */ x = x -> y && 12;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind != tokEOF {
			texts = append(texts, tk.text)
		}
	}
	want := []string{"int", "x", ";", "x", "=", "x", "->", "y", "&&", "12", ";"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF token")
	}
}

func TestLexRejectsBadChar(t *testing.T) {
	if _, err := lexAll("int x @ y;"); err == nil {
		t.Fatal("lex accepted '@'")
	}
}

// TestLexRejectsUnterminatedComment: a block comment that never closes is
// an error at the line it opened on, not a silent end of the program.
func TestLexRejectsUnterminatedComment(t *testing.T) {
	cases := []struct {
		src  string
		line int
	}{
		{"/* unterminated", 1},
		{"int x; /* oops", 1},
		{"int main() {\n  int x;\n  /* cut off\n  x = 1;\n", 3},
		{"int x; /* ends in a star *", 1},
		{"int x; /*/", 1},
	}
	for _, c := range cases {
		_, err := Compile("t", c.src)
		var e *Error
		if !errors.As(err, &e) {
			t.Fatalf("Compile(%q) = %v, want *Error", c.src, err)
		}
		if e.Line != c.line || !strings.Contains(e.Msg, "unterminated") {
			t.Errorf("Compile(%q) = %v, want unterminated comment at line %d", c.src, err, c.line)
		}
	}
	// Closed comments, including "/*/" openers and one ending the source,
	// still lex, and lines inside them are counted.
	toks, err := lexAll("/*/ a */ int\n/* b\n*/ x; /* c */")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 || toks[1].text != "x" || toks[1].line != 3 {
		t.Fatalf("tokens = %v, want int, x (line 3), ;, EOF", toks)
	}
}

// TestLexAllocs: scanning every token of a source makes the same small
// number of allocations whatever its size, so the scanner allocates nothing
// per token (token texts are substrings of the source, and no token table
// is kept).
func TestLexAllocs(t *testing.T) {
	small := mbedSnippet
	large := strings.Repeat(mbedSnippet, 100)
	var want float64
	for i, src := range []string{small, large} {
		n := testing.AllocsPerRun(10, func() {
			l := lexer{src: src, line: 1}
			if l.finish() != nil {
				t.Fatal(l.err)
			}
		})
		if n > 0 {
			t.Errorf("scan(%d bytes): %.0f allocations, want 0", len(src), n)
		}
		if i == 0 {
			want = n
		} else if n != want {
			t.Errorf("scan(%d bytes): %.0f allocations, scan(%d bytes): %.0f; want the same", len(small), want, len(src), n)
		}
	}
}

func TestLexTracksLines(t *testing.T) {
	toks, err := lexAll("int x;\n\nint y;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[3].text != "int" || toks[3].line != 3 {
		t.Fatalf("token %v at line %d, want 'int' at 3", toks[3].text, toks[3].line)
	}
}

const mbedSnippet = `
struct ssl_ctx {
  fn f_send;
  fn f_recv;
  int* peer;
}

ssl_ctx global_ssl;
int scratch[16];

int net_send(int* c) { return 1; }
int net_recv(int* c) { return 2; }

void setup() {
  global_ssl.f_send = &net_send;
  global_ssl.f_recv = net_recv;
}

int main() {
  int x;
  setup();
  x = global_ssl.f_send(scratch);
  return x;
}
`

func TestCompileMbedSnippet(t *testing.T) {
	m := compile(t, mbedSnippet)
	if len(m.Funcs) != 4 {
		t.Fatalf("functions = %d, want 4", len(m.Funcs))
	}
	st := m.Structs["ssl_ctx"]
	if st == nil || len(st.Fields) != 3 {
		t.Fatalf("ssl_ctx struct = %+v", st)
	}
	if !m.Func("net_send").AddressTaken || !m.Func("net_recv").AddressTaken {
		t.Error("callbacks not address-taken")
	}
	if m.Func("setup").AddressTaken {
		t.Error("setup wrongly address-taken")
	}
	if n := countInstr[*ir.ICall](m); n != 1 {
		t.Errorf("icalls = %d, want 1", n)
	}
	if n := countInstr[*ir.FieldAddr](m); n != 3 {
		t.Errorf("fieldaddrs = %d, want 3", n)
	}
}

func TestCompilePointerArithmetic(t *testing.T) {
	src := `
struct plugin { int* data; fn handler; }
plugin mod_auth;
int buff[64];

void write_header(char* s, char* src) {
  int i;
  i = input();
  *(s + i) = *(src + i);
}

int main() {
  write_header(buff, buff);
  return 0;
}
`
	m := compile(t, src)
	if n := countInstr[*ir.PtrAdd](m); n != 2 {
		t.Errorf("ptradds = %d, want 2", n)
	}
	if n := countInstr[*ir.IndexAddr](m); n != 0 {
		t.Errorf("indexaddrs = %d, want 0", n)
	}
}

func TestCompileArrayIndexingIsNotArbitraryArithmetic(t *testing.T) {
	src := `
int table[8];
int main() {
  int i;
  i = input();
  table[i] = 7;
  return table[i];
}
`
	m := compile(t, src)
	if n := countInstr[*ir.PtrAdd](m); n != 0 {
		t.Errorf("ptradds = %d, want 0", n)
	}
	if n := countInstr[*ir.IndexAddr](m); n != 2 {
		t.Errorf("indexaddrs = %d, want 2", n)
	}
}

func TestCompileMallocSizeof(t *testing.T) {
	src := `
struct state { int* f1; int* f2; }
int main() {
  state* s;
  int* q;
  s = malloc(sizeof(state));
  q = malloc(64);
  return 0;
}
`
	m := compile(t, src)
	var typed, untyped int
	for _, f := range m.Funcs {
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			if mal, ok := in.(*ir.Malloc); ok {
				if mal.SizeOf != nil {
					typed++
					if ir.BaseName(mal.SizeOf) != "state" {
						t.Errorf("sizeof type = %s", mal.SizeOf)
					}
				} else {
					untyped++
				}
			}
		})
	}
	if typed != 1 || untyped != 1 {
		t.Errorf("mallocs typed=%d untyped=%d, want 1/1", typed, untyped)
	}
}

func TestCompileControlFlow(t *testing.T) {
	src := `
int main() {
  int i;
  int sum;
  i = 0;
  sum = 0;
  while (i < 10) {
    if (i % 2 == 0) {
      sum = sum + i;
    } else {
      sum = sum - 1;
    }
    i = i + 1;
  }
  return sum;
}
`
	m := compile(t, src)
	f := m.Func("main")
	if len(f.Blocks) < 6 {
		t.Errorf("blocks = %d, want >= 6", len(f.Blocks))
	}
	for _, b := range f.Blocks {
		if b.Terminator() == nil {
			t.Errorf("block %s lacks terminator", b.Name)
		}
	}
}

func TestCompileShortCircuit(t *testing.T) {
	src := `
int main() {
  int* p;
  p = null;
  if (p != null && *p > 0) {
    return 1;
  }
  return 0;
}
`
	m := compile(t, src)
	// The dereference *p must be in a block only reachable when p != null.
	f := m.Func("main")
	var loadBlk string
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if _, ok := in.(*ir.Load); ok && strings.HasPrefix(b.Name, "sc.rhs") {
				loadBlk = b.Name
			}
		}
	}
	if loadBlk == "" {
		t.Error("dereference not confined to short-circuit rhs block")
	}
}

func TestCompileIndirectCallThroughField(t *testing.T) {
	src := `
struct ops { fn open; fn close; }
int do_open(int* x) { return 1; }
int main() {
  ops o;
  o.open = &do_open;
  return o.open(null);
}
`
	m := compile(t, src)
	if n := countInstr[*ir.ICall](m); n != 1 {
		t.Errorf("icalls = %d, want 1", n)
	}
}

func TestCompileMultiLevelPointers(t *testing.T) {
	src := `
int o;
int main() {
  int* p;
  int** q;
  int* r;
  p = &o;
  q = &p;
  r = *q;
  return *r;
}
`
	m := compile(t, src)
	if m.Func("main") == nil {
		t.Fatal("main missing")
	}
	if n := countInstr[*ir.Load](m); n < 3 {
		t.Errorf("loads = %d, want >= 3", n)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown type", `foo x; int main() { return 0; }`, "unknown type"},
		{"unknown var", `int main() { return zz; }`, "undefined name"},
		{"bad field", `struct s { int a; } int main() { s v; v.b = 1; return 0; }`, "no field"},
		{"deref int", `int main() { int x; x = 1; return *x; }`, "dereference non-pointer"},
		{"void var", `int main() { void v; return 0; }`, "void type"},
		{"dup struct", `struct s { int a; } struct s { int b; } int main() { return 0; }`, "duplicate struct"},
		{"dup func", `int f() { return 0; } int f() { return 1; } int main() { return 0; }`, "duplicate function"},
		{"dup global", `int g; int g; int main() { return 0; }`, "duplicate global"},
		{"arg count", `int f(int a) { return a; } int main() { return f(1, 2); }`, "2 args, want 1"},
		{"assign struct ptr", `struct a { int x; } struct b { int y; } int main() { a* p; b* q; p = null; q = p; return 0; }`, "cannot assign"},
		{"void return value", `void f() { return 3; } int main() { return 0; }`, "void function"},
		{"missing return value", `int f() { return; } int main() { return 0; }`, "missing return value"},
		{"call non-fn", `int main() { int x; x = 1; return x(); }`, "not fn"},
		{"self struct", `struct s { s inner; } int main() { return 0; }`, "contains itself"},
		{"mutual struct", `struct a { b x; } struct b { a y; } int main() { a v; return 0; }`, "struct a contains itself"},
		{"self struct array", `struct s { s arr[2]; } int main() { return 0; }`, "struct s contains itself"},
		{"lt on pointers", `int g; int main() { int* p; p = &g; if (p < p) { return 1; } return 0; }`, "requires integers"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { compileErr(t, c.src, c.want) })
	}
}

func TestCompileFnFieldArrays(t *testing.T) {
	src := `
struct cmd { fn exec; }
cmd table[4];
int run_a(int* x) { return 1; }
int run_b(int* x) { return 2; }
int main() {
  int i;
  table[0].exec = &run_a;
  table[1].exec = &run_b;
  i = input();
  return table[i].exec(null);
}
`
	m := compile(t, src)
	if n := countInstr[*ir.ICall](m); n != 1 {
		t.Errorf("icalls = %d, want 1", n)
	}
	if n := countInstr[*ir.IndexAddr](m); n != 3 {
		t.Errorf("indexaddrs = %d, want 3", n)
	}
}

func TestCompileNestedIfElseChain(t *testing.T) {
	src := `
int classify(int x) {
  if (x < 0) {
    return 0;
  } else if (x == 0) {
    return 1;
  } else {
    return 2;
  }
}
int main() { return classify(input()); }
`
	m := compile(t, src)
	if m.Func("classify") == nil {
		t.Fatal("classify missing")
	}
}

func TestParamAssignmentGetsSlot(t *testing.T) {
	src := `
int g;
int f(int* p) {
  p = &g;
  return *p;
}
int main() { return f(null); }
`
	m := compile(t, src)
	// p is assigned, so it must be backed by an alloca in f.
	found := false
	m.Func("f").Instrs(func(_ *ir.Block, in ir.Instr) {
		if a, ok := in.(*ir.Alloca); ok && a.Var == "p" {
			found = true
		}
	})
	if !found {
		t.Error("assigned parameter p not alloca-backed")
	}
}

func TestStructCopyAssignment(t *testing.T) {
	src := `
struct pair { int a; int b; }
int main() {
  pair x;
  pair y;
  x.a = 1;
  x.b = 2;
  y = x;
  return y.a + y.b;
}
`
	m := compile(t, src)
	// struct copy lowers to per-field load/store: 2 fields -> at least 2
	// stores beyond the two literal field assignments.
	if n := countInstr[*ir.Store](m); n < 4 {
		t.Errorf("stores = %d, want >= 4", n)
	}
}

// TestDiagnosticPrecedence: a character the lexer rejects, or a block
// comment that never closes, is the reported diagnostic even when a parse
// error comes earlier in the source.
func TestDiagnosticPrecedence(t *testing.T) {
	cases := []struct {
		name, src string
		line      int
		msg       string
	}{
		{
			"parse error then bad character",
			"int main() {\n  int x\n  x = 1;\n  return x;\n}\n\nint f() {\n  int y;\n  y = 1 @ 2;\n  return y;\n}\n",
			9, `unexpected character '@'`,
		},
		{
			"parse error then unterminated comment",
			"int main() {\n  return 0\n}\n/* never closed\nint g;\n",
			4, "unterminated /* comment",
		},
	}
	for _, c := range cases {
		_, err := Compile("t", c.src)
		var e *Error
		if !errors.As(err, &e) {
			t.Fatalf("%s: Compile = %v, want *Error", c.name, err)
		}
		if e.Line != c.line || e.Msg != c.msg {
			t.Errorf("%s: Compile = %v, want line %d: %s", c.name, err, c.line, c.msg)
		}
	}
}
