package pointsto

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/minic"
)

func analyze(t *testing.T, src string, cfg invariant.Config) *Result {
	t.Helper()
	m, err := minic.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return New(m, cfg).Solve()
}

func objNames(refs []ObjRef) []string {
	var out []string
	for _, r := range refs {
		out = append(out, r.Obj.Label())
	}
	return out
}

func hasObj(refs []ObjRef, label string) bool {
	for _, r := range refs {
		if r.Obj.Label() == label {
			return true
		}
	}
	return false
}

// Figure 2 of the paper: p = &o; q = &p; r = *q  =>  PTS(r) = {o}.
const figure2 = `
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

func TestFigure2BasicResolution(t *testing.T) {
	r := analyze(t, figure2, invariant.Config{})
	// r is alloca-backed; find the register points-to through the variable's
	// slot: locate alloca object for r and inspect its slot content.
	var rObj *Object
	for _, o := range r.Objects() {
		if o.Kind == ObjStack && o.Name == "r" {
			rObj = o
		}
	}
	if rObj == nil {
		t.Fatal("no stack object for r")
	}
	refs := r.SlotPointsTo(rObj, 0)
	if len(refs) != 1 || refs[0].Obj.Label() != "@o" {
		t.Fatalf("PTS(r) = %v, want {@o}", objNames(refs))
	}
}

// Field sensitivity: stores to distinct fields stay distinct.
const fieldSensSrc = `
struct pair { int* a; int* b; }
int x;
int y;
pair g;
int main() {
  int* ra;
  int* rb;
  g.a = &x;
  g.b = &y;
  ra = g.a;
  rb = g.b;
  return 0;
}
`

func TestFieldSensitivity(t *testing.T) {
	r := analyze(t, fieldSensSrc, invariant.Config{})
	g := r.ObjectByGlobal("g")
	if g == nil || g.Size != 2 {
		t.Fatalf("g object = %+v", g)
	}
	a := r.SlotPointsTo(g, 0)
	b := r.SlotPointsTo(g, 1)
	if len(a) != 1 || a[0].Obj.Label() != "@x" {
		t.Errorf("PTS(g.a) = %v, want {@x}", objNames(a))
	}
	if len(b) != 1 || b[0].Obj.Label() != "@y" {
		t.Errorf("PTS(g.b) = %v, want {@y}", objNames(b))
	}
}

// Copy cycles collapse without losing precision.
const cycleSrc = `
int x;
int main() {
  int* p;
  int* q;
  int* r;
  p = &x;
  while (input()) {
    q = p;
    r = q;
    p = r;
  }
  return *p;
}
`

func TestCopyCycleCollapse(t *testing.T) {
	r := analyze(t, cycleSrc, invariant.Config{})
	st := r.Stats()
	if st.SCCCollapses+st.HCDCollapses+st.LCDCollapses == 0 {
		t.Error("no cycle collapse recorded for a copy cycle (by any mechanism)")
	}
	var pObj *Object
	for _, o := range r.Objects() {
		if o.Kind == ObjStack && o.Name == "p" {
			pObj = o
		}
	}
	refs := r.SlotPointsTo(pObj, 0)
	if len(refs) != 1 || refs[0].Obj.Label() != "@x" {
		t.Fatalf("PTS(p) = %v, want {@x}", objNames(refs))
	}
}

// Figure 6 of the paper: arbitrary pointer arithmetic over a pointer that
// (imprecisely) also points to struct objects.
const figure6 = `
struct plugin { int* data; fn handle_uri; fn handle_request; }
plugin mod_auth;
plugin mod_cgi;
int buff[1024];

int auth_handler(int* x) { return 1; }
int auth_req_handler(int* x) { return 2; }
int cgi_handler(int* x) { return 3; }
int cgi_req_handler(int* x) { return 4; }

void register_plugins() {
  mod_auth.handle_uri = &auth_handler;
  mod_auth.handle_request = &auth_req_handler;
  mod_cgi.handle_uri = &cgi_handler;
  mod_cgi.handle_request = &cgi_req_handler;
}

void http_write_header(char* s, char* src) {
  int i;
  i = input();
  *(s + i) = *(src + i);
}

int main() {
  char* p;
  register_plugins();
  p = buff;
  if (input()) {
    p = &mod_auth;
  }
  if (input() > 2) {
    p = &mod_cgi;
  }
  http_write_header(p, buff);
  return mod_auth.handle_uri(buff);
}
`

func TestFigure6ArbitraryArithmeticBaseline(t *testing.T) {
	r := analyze(t, figure6, invariant.Config{})
	modAuth := r.ObjectByGlobal("mod_auth")
	modCgi := r.ObjectByGlobal("mod_cgi")
	if !modAuth.Insens || !modCgi.Insens {
		t.Error("baseline should turn plugin objects field-insensitive under *(s+i)")
	}
	// Field insensitivity pollutes the indirect call: both handlers become
	// possible targets of mod_auth.handle_uri.
	sites := r.ICallSites()
	if len(sites) != 1 {
		t.Fatalf("icall sites = %v", sites)
	}
	targets := r.CallTargets(sites[0])
	if len(targets) != 2 {
		t.Fatalf("baseline CFI targets = %v, want both handlers", targets)
	}
	if len(r.Invariants()) != 0 {
		t.Errorf("baseline recorded invariants: %v", r.Invariants())
	}
}

func TestFigure6ArbitraryArithmeticOptimistic(t *testing.T) {
	r := analyze(t, figure6, invariant.Config{PA: true})
	modAuth := r.ObjectByGlobal("mod_auth")
	modCgi := r.ObjectByGlobal("mod_cgi")
	if modAuth.Insens || modCgi.Insens {
		t.Error("PA invariant should preserve field sensitivity of plugin objects")
	}
	sites := r.ICallSites()
	targets := r.CallTargets(sites[0])
	if len(targets) != 1 || targets[0] != "auth_handler" {
		t.Fatalf("optimistic CFI targets = %v, want [auth_handler]", targets)
	}
	// The PA invariant must be recorded with the filtered struct objects.
	var pa []invariant.Record
	for _, rec := range r.Invariants() {
		if rec.Kind == invariant.PA {
			pa = append(pa, rec)
		}
	}
	if len(pa) == 0 {
		t.Fatal("no PA invariant recorded")
	}
	filtered := map[int]bool{}
	for _, rec := range pa {
		for _, oi := range rec.FilteredObjs {
			filtered[oi] = true
		}
	}
	if !filtered[modAuth.Index] || !filtered[modCgi.Index] {
		t.Errorf("filtered objects %v missing plugin objects (%d, %d)", filtered, modAuth.Index, modCgi.Index)
	}
	if r.Stats().MonitorSites == 0 {
		t.Error("no monitors recorded for PA invariants")
	}
}

// The PA invariant must never filter unknown-type heap objects (§6).
const unknownHeapSrc = `
struct blob { int* f1; fn cb; }
int one(int* x) { return 1; }
int main() {
  char* p;
  int i;
  p = malloc(128);
  i = input();
  *(p + i) = 7;
  return 0;
}
`

func TestUnknownHeapNeverFiltered(t *testing.T) {
	r := analyze(t, unknownHeapSrc, invariant.All())
	for _, rec := range r.Invariants() {
		if rec.Kind == invariant.PA && len(rec.FilteredObjs) > 0 {
			t.Errorf("PA filtered objects despite unknown heap type: %+v", rec)
		}
	}
	// The arithmetic destination must still include the heap object.
	found := false
	for _, o := range r.Objects() {
		if o.Kind == ObjHeap && o.Insens {
			found = true
		}
	}
	if !found {
		t.Error("unknown-type heap object missing or not collapsed")
	}
}

// Figure 7 of the paper: heap imprecision creates a positive weight cycle.
const figure7 = `
struct compression_state { int* f1; int* f2; }
int sentinel1;
int sentinel2;

void* png_malloc() {
  return malloc(sizeof(compression_state));
}

int main() {
  compression_state** s1;
  int** q;
  compression_state* s2;
  int* b;
  compression_state* fresh;
  s1 = png_malloc();
  q = png_malloc();
  fresh = malloc(sizeof(compression_state));
  fresh->f1 = &sentinel1;
  *s1 = fresh;
  while (input()) {
    s2 = *s1;
    b = &s2->f2;
    *q = b;
  }
  return 0;
}
`

func TestFigure7PWCBaseline(t *testing.T) {
	r := analyze(t, figure7, invariant.Config{})
	if r.Stats().PWCs == 0 {
		t.Fatal("no PWC detected in the Figure 7 pattern")
	}
	// Baseline mitigation: the heap compression_state objects lose field
	// sensitivity, so f1's contents leak into f2 reads.
	var freshObj *Object
	for _, o := range r.Objects() {
		if o.Kind == ObjHeap && o.Fn == "main" && o.Type != nil && ir.BaseName(o.Type) == "compression_state" {
			freshObj = o
		}
	}
	if freshObj == nil {
		t.Fatal("fresh heap object not found")
	}
	if !freshObj.Insens {
		t.Error("baseline PWC handling should collapse the heap object")
	}
	if hasSentinelLeak := hasObj(r.SlotPointsTo(freshObj, 0), "@sentinel1"); !hasSentinelLeak {
		t.Error("collapsed object should conflate f1/f2 contents")
	}
}

func TestFigure7PWCOptimistic(t *testing.T) {
	r := analyze(t, figure7, invariant.Config{PWC: true})
	if r.Stats().PWCs == 0 {
		t.Fatal("no PWC detected")
	}
	var recs []invariant.Record
	for _, rec := range r.Invariants() {
		if rec.Kind == invariant.PWC {
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		t.Fatal("no PWC invariant recorded")
	}
	if len(recs[0].CycleFieldSites) == 0 {
		t.Error("PWC record lists no field-access sites")
	}
	// Optimistic: the typed heap object keeps field sensitivity.
	for _, o := range r.Objects() {
		if o.Kind == ObjHeap && o.Fn == "main" && o.Type != nil && ir.BaseName(o.Type) == "compression_state" && o.Insens {
			t.Errorf("object %s lost field sensitivity despite PWC invariant", o.Label())
		}
	}
}

// Figure 8 of the paper: context insensitivity pollutes per-callsite
// callback registration.
const figure8 = `
struct ev_base { int count; int** cbs; }
ev_base global_base;
ev_base evdns_base;
int* slots1[4];
int* slots2[4];
int cb1;
int cb2;

void ev_queue_insert(ev_base* b, int* cb) {
  b->cbs[0] = cb;
}

int main() {
  int* got;
  global_base.cbs = slots1;
  evdns_base.cbs = slots2;
  ev_queue_insert(&global_base, &cb1);
  ev_queue_insert(&evdns_base, &cb2);
  got = global_base.cbs[0];
  return *got;
}
`

func TestFigure8CtxBaseline(t *testing.T) {
	r := analyze(t, figure8, invariant.Config{})
	s1 := r.ObjectByGlobal("slots1")
	refs := r.SlotPointsTo(s1, 0)
	if !hasObj(refs, "@cb1") || !hasObj(refs, "@cb2") {
		t.Fatalf("baseline PTS(slots1[0]) = %v, want cross-product {cb1, cb2}", objNames(refs))
	}
	if stores := len(r.a.ctxPlan.stores); stores != 1 {
		t.Errorf("ctx candidate stores = %d, want 1", stores)
	}
}

func TestFigure8CtxOptimistic(t *testing.T) {
	r := analyze(t, figure8, invariant.Config{Ctx: true})
	s1 := r.ObjectByGlobal("slots1")
	s2 := r.ObjectByGlobal("slots2")
	refs1 := r.SlotPointsTo(s1, 0)
	refs2 := r.SlotPointsTo(s2, 0)
	if len(refs1) != 1 || refs1[0].Obj.Label() != "@cb1" {
		t.Errorf("PTS(slots1[0]) = %v, want {@cb1}", objNames(refs1))
	}
	if len(refs2) != 1 || refs2[0].Obj.Label() != "@cb2" {
		t.Errorf("PTS(slots2[0]) = %v, want {@cb2}", objNames(refs2))
	}
	var ctx []invariant.Record
	for _, rec := range r.Invariants() {
		if rec.Kind == invariant.Ctx {
			ctx = append(ctx, rec)
		}
	}
	if len(ctx) != 1 || len(ctx[0].Callsites) != 2 {
		t.Fatalf("ctx invariants = %+v, want 1 record with 2 callsites", ctx)
	}
}

// Context-sensitive return flow: an identity-style helper called from two
// sites must not mix its callers' results under the Ctx invariant.
const ctxRetSrc = `
int a;
int b;
int* pass_through(int* p) {
  return p;
}
int main() {
  int* x;
  int* y;
  x = pass_through(&a);
  y = pass_through(&b);
  return 0;
}
`

func TestCtxReturnFlow(t *testing.T) {
	base := analyze(t, ctxRetSrc, invariant.Config{})
	var xObj, yObj *Object
	for _, o := range base.Objects() {
		if o.Kind == ObjStack && o.Name == "x" {
			xObj = o
		}
		if o.Kind == ObjStack && o.Name == "y" {
			yObj = o
		}
	}
	if got := base.SlotPointsTo(xObj, 0); len(got) != 2 {
		t.Fatalf("baseline PTS(x) = %v, want both", objNames(got))
	}
	opt := analyze(t, ctxRetSrc, invariant.Config{Ctx: true})
	xObj, yObj = nil, nil
	for _, o := range opt.Objects() {
		if o.Kind == ObjStack && o.Name == "x" {
			xObj = o
		}
		if o.Kind == ObjStack && o.Name == "y" {
			yObj = o
		}
	}
	gx := opt.SlotPointsTo(xObj, 0)
	gy := opt.SlotPointsTo(yObj, 0)
	if len(gx) != 1 || gx[0].Obj.Label() != "@a" {
		t.Errorf("optimistic PTS(x) = %v, want {@a}", objNames(gx))
	}
	if len(gy) != 1 || gy[0].Obj.Label() != "@b" {
		t.Errorf("optimistic PTS(y) = %v, want {@b}", objNames(gy))
	}
}

// Address-taken functions are excluded from Ctx rewriting (their indirect
// callsites cannot be enumerated statically).
const ctxAddrTakenSrc = `
int a;
int b;
int* pick(int* p) { return p; }
int main() {
  fn f;
  int* x;
  int* y;
  f = &pick;
  x = pick(&a);
  y = pick(&b);
  x = f(&a);
  return 0;
}
`

func TestCtxSkipsAddressTakenFunctions(t *testing.T) {
	r := analyze(t, ctxAddrTakenSrc, invariant.Config{Ctx: true})
	for _, rec := range r.Invariants() {
		if rec.Kind == invariant.Ctx {
			t.Fatalf("ctx invariant recorded for address-taken function: %+v", rec)
		}
	}
}

// Indirect call targets resolve through stored function pointers.
const icallSrc = `
struct ops { fn open; fn close; }
ops g;
int do_open(int* x) { return 1; }
int do_close(int* x) { return 2; }
int unused(int* x) { return 3; }
int main() {
  g.open = &do_open;
  g.close = &do_close;
  return g.open(null);
}
`

func TestICallTargets(t *testing.T) {
	r := analyze(t, icallSrc, invariant.Config{})
	sites := r.ICallSites()
	if len(sites) != 1 {
		t.Fatalf("icall sites = %v", sites)
	}
	targets := r.CallTargets(sites[0])
	if len(targets) != 1 || targets[0] != "do_open" {
		t.Fatalf("targets = %v, want [do_open]", targets)
	}
}

// Indirect callee receives argument flow.
const icallArgSrc = `
int target;
int* sink;
int cb(int* p) {
  sink = p;
  return 0;
}
int main() {
  fn f;
  f = &cb;
  f(&target);
  return 0;
}
`

func TestICallArgumentFlow(t *testing.T) {
	r := analyze(t, icallArgSrc, invariant.Config{})
	sink := r.ObjectByGlobal("sink")
	refs := r.SlotPointsTo(sink, 0)
	if len(refs) != 1 || refs[0].Obj.Label() != "@target" {
		t.Fatalf("PTS(sink) = %v, want {@target}", objNames(refs))
	}
}

// Property: for every top-level pointer, the optimistic points-to set is a
// subset of the baseline set (optimism only removes derivations).
func TestOptimisticSubsetOfBaseline(t *testing.T) {
	srcs := map[string]string{
		"figure6": figure6, "figure7": figure7, "figure8": figure8,
		"ctxRet": ctxRetSrc, "icall": icallSrc,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			base := analyze(t, src, invariant.Config{})
			opt := analyze(t, src, invariant.All())
			for _, p := range base.TopLevelPointers() {
				baseRefs := map[string]bool{}
				var refs []ObjRef
				if p.Reg == "" {
					continue
				}
				refs = base.PointsTo(p.Fn, p.Reg)
				for _, ref := range refs {
					baseRefs[ref.Obj.Label()] = true
				}
				for _, ref := range opt.PointsTo(p.Fn, p.Reg) {
					if !baseRefs[ref.Obj.Label()] {
						t.Errorf("%s:%s optimistic target %s absent from baseline", p.Fn, p.Reg, ref.Obj.Label())
					}
				}
			}
		})
	}
}

// The average points-to size must shrink (or stay equal) under full
// Kaleidoscope on the imprecision-heavy fixtures.
func TestPrecisionImproves(t *testing.T) {
	for name, src := range map[string]string{"figure6": figure6, "figure8": figure8} {
		t.Run(name, func(t *testing.T) {
			base := analyze(t, src, invariant.Config{})
			opt := analyze(t, src, invariant.All())
			var bSum, oSum int
			for _, p := range base.TopLevelPointers() {
				bSum += base.SizeOf(p)
				oSum += opt.SizeOf(p)
			}
			if oSum > bSum {
				t.Errorf("optimistic total pts size %d > baseline %d", oSum, bSum)
			}
			if oSum == bSum {
				t.Errorf("no precision improvement on %s (both %d)", name, bSum)
			}
		})
	}
}

func TestStatsAndNodeCount(t *testing.T) {
	r := analyze(t, figure6, invariant.Config{})
	st := r.Stats()
	if st.Iterations == 0 || st.CopyEdges == 0 {
		t.Errorf("implausible stats: %+v", st)
	}
	if r.NodeCount() == 0 {
		t.Error("no nodes")
	}
}

// §6 heap-type propagation end-to-end: an allocation wrapper whose callers
// all pass sizeof(T) yields a typed, field-sensitive heap object that the PA
// invariant may filter; a wrapper with mixed sizes stays unknown and is
// never filtered.
const heapWrapperSrc = `
struct conn { fn handler; int* buf; }
int scratch[16];
int h1(int* x) { return 1; }

void* xalloc(int n) {
  return malloc(n);
}

void smear(char* p, int i) {
  *(p + i) = 0;
}

int main() {
  conn* c;
  char* p;
  c = xalloc(sizeof(conn));
  c->handler = &h1;
  p = scratch;
  if (input() % 7 == 9) {
    p = c;
  }
  smear(p, input() % 16);
  return c->handler(c->buf);
}
`

func TestHeapTypePropagationEnablesPAFiltering(t *testing.T) {
	r := analyze(t, heapWrapperSrc, invariant.Config{PA: true})
	// The wrapper-allocated conn object must be typed...
	var heapObj *Object
	for _, o := range r.Objects() {
		if o.Kind == ObjHeap {
			heapObj = o
		}
	}
	if heapObj == nil {
		t.Fatal("no heap object")
	}
	if heapObj.Type == nil || ir.BaseName(heapObj.Type) != "conn" {
		t.Fatalf("heap object type = %v, want conn", heapObj.Type)
	}
	if heapObj.Size != 2 {
		t.Fatalf("heap object size = %d, want 2 (field-sensitive)", heapObj.Size)
	}
	// ...and therefore filterable by the PA invariant.
	filtered := false
	for _, rec := range r.Invariants() {
		if rec.Kind == invariant.PA {
			for _, oi := range rec.FilteredObjs {
				if oi == heapObj.Index {
					filtered = true
				}
			}
		}
	}
	if !filtered {
		t.Error("typed heap object was not PA-filtered")
	}
}

const mixedWrapperSrc = `
struct a1 { fn f; int* p; }
struct a2 { int* q; fn g; int pad; }
int scratch[16];
int h1(int* x) { return 1; }

void* xalloc(int n) {
  return malloc(n);
}

void smear(char* p, int i) {
  *(p + i) = 0;
}

int main() {
  a1* x;
  a2* y;
  char* p;
  x = xalloc(sizeof(a1));
  y = xalloc(sizeof(a2));
  x->f = &h1;
  p = scratch;
  if (input() % 7 == 9) {
    p = x;
  }
  smear(p, input() % 16);
  return x->f(null);
}
`

func TestMixedWrapperNeverFiltered(t *testing.T) {
	r := analyze(t, mixedWrapperSrc, invariant.All())
	for _, o := range r.Objects() {
		if o.Kind == ObjHeap && o.Type != nil {
			t.Fatalf("mixed wrapper heap object got typed: %v", o.Type)
		}
	}
	for _, rec := range r.Invariants() {
		if rec.Kind == invariant.PA && len(rec.FilteredObjs) > 0 {
			for _, oi := range rec.FilteredObjs {
				if r.Objects()[oi].Kind == ObjHeap {
					t.Fatalf("unknown-type heap object filtered: %+v", rec)
				}
			}
		}
	}
}
