package memview

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/pointsto"
)

const rtSrc = `
struct plugin { fn handler; int* data; }
plugin mod;
int buff[16];
int cb(int* x) { return 1; }
void smear(char* s, int i) {
  *(s + i) = 0;
}
int main() {
  char* p;
  mod.handler = &cb;
  p = buff;
  if (input() % 7 == 9) {
    p = &mod;
  }
  smear(p, 0);
  return mod.handler(null);
}
`

func optimisticResult(t *testing.T) *pointsto.Result {
	t.Helper()
	m, err := minic.Compile("rt", rtSrc)
	if err != nil {
		t.Fatal(err)
	}
	return pointsto.New(m, invariant.All()).Solve()
}

// globalObj makes a runtime object for global name of r's module, under
// the global's IR number.
func globalObj(r *pointsto.Result, name string, n int) *interp.RObj {
	return interp.NewObj(r.ObjectByGlobal(name).Index, "@"+name, n)
}

// recorder collects violations without switching anything.
type recorder struct{ got []Violation }

func (r *recorder) OnViolation(v Violation)      { r.got = append(r.got, v) }
func (r *recorder) Permits(_ int, _ string) bool { return true }

// buildRuntime builds a runtime whose handler is h.
func buildRuntime(t *testing.T, r *pointsto.Result, h Handler) (*Runtime, *interp.Instrumentation) {
	t.Helper()
	rt, err := BuildRuntime(r, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt, Instrumentation(r)
}

func TestPAMonitorFiresOnlyForFilteredObjects(t *testing.T) {
	r := optimisticResult(t)
	rec := &recorder{}
	rt, ins := buildRuntime(t, r, rec)
	var paSite int
	for s := range ins.PtrAddSites {
		paSite = s
	}
	if paSite == 0 {
		t.Fatal("no PA monitor site")
	}
	mod := globalObj(r, "mod", 2)
	buff := globalObj(r, "buff", 16)

	rt.PtrAdd(paSite, interp.PtrVal(buff, 0))
	if len(rec.got) != 0 {
		t.Fatalf("benign base fired: %v", rec.got)
	}
	rt.PtrAdd(paSite, interp.IntVal(0))
	if len(rec.got) != 0 {
		t.Fatalf("null base fired: %v", rec.got)
	}
	rt.PtrAdd(paSite, interp.PtrVal(mod, 0))
	if len(rec.got) != 1 || rec.got[0].Kind != invariant.PA {
		t.Fatalf("filtered base did not fire: %v", rec.got)
	}
	if rt.ChecksPerformed != 3 {
		t.Errorf("checks = %d, want 3", rt.ChecksPerformed)
	}
}

// pwcSrc forms a positive-weight cycle through the field access &s2->f2.
const pwcSrc = `
struct cs { int* f1; int* f2; }
void* arena(int n) { return malloc(n); }
int main() {
  cs** s1;
  int** q;
  cs* s2;
  int* b;
  cs* fresh;
  s1 = arena(sizeof(cs));
  q = arena(sizeof(cs));
  fresh = arena(sizeof(cs));
  *s1 = fresh;
  while (input()) {
    s2 = *s1;
    b = &s2->f2;
    *q = b;
  }
  return 0;
}
`

func TestPWCMonitorDetectsAddressReuse(t *testing.T) {
	// Build a runtime with a synthetic PWC invariant.
	m, err := minic.Compile("rt", rtSrc)
	if err != nil {
		t.Fatal(err)
	}
	r := pointsto.New(m, invariant.All()).Solve()
	_ = r
	// Use a hand-rolled runtime state through the public hook methods: fake
	// the invariant by constructing a result with a PWC is hard here, so
	// drive the real mbedtls-like fixture instead.
	m2, err := minic.Compile("pwc", pwcSrc)
	if err != nil {
		t.Fatal(err)
	}
	r2 := pointsto.New(m2, invariant.Config{PWC: true}).Solve()
	rec := &recorder{}
	rt, ins := buildRuntime(t, r2, rec)
	var site int
	for s := range ins.FieldSites {
		site = s
	}
	if site == 0 {
		t.Skip("no PWC monitor in fixture")
	}
	obj := interp.NewObj(-1, "heap#1", 2)
	base := interp.PtrVal(obj, 0)
	generated := interp.PtrVal(obj, 1)
	// First access: base is fresh, records `generated`.
	rt.FieldAddr(site, base, generated)
	if len(rec.got) != 0 {
		t.Fatalf("fresh base fired: %v", rec.got)
	}
	// Reuse of the generated address as base: the PWC materializes.
	rt.FieldAddr(site, generated, interp.PtrVal(obj, 2))
	if len(rec.got) != 1 || rec.got[0].Kind != invariant.PWC {
		t.Fatalf("address reuse did not fire: %v", rec.got)
	}
}

// ctxSrc gives insert a context-sensitive store through its parameter b.
const ctxSrc = `
struct holder { int n; int** slot; }
holder h1;
holder h2;
int* s1[2];
int* s2[2];
int v1;
int v2;
void insert(holder* b, int* v) {
  b->slot[0] = v;
}
int main() {
  h1.slot = s1;
  h2.slot = s2;
  insert(&h1, &v1);
  insert(&h2, &v2);
  return 0;
}
`

func TestCtxMonitorComparesRecordedActuals(t *testing.T) {
	m, err := minic.Compile("ctx", ctxSrc)
	if err != nil {
		t.Fatal(err)
	}
	r := pointsto.New(m, invariant.Config{Ctx: true}).Solve()
	rec := &recorder{}
	rt, ins := buildRuntime(t, r, rec)
	var callSite, checkSite int
	for s := range ins.CtxCallArgs {
		callSite = s
	}
	for s := range ins.CtxChecks {
		checkSite = s
	}
	if callSite == 0 || checkSite == 0 {
		t.Fatal("ctx sites missing")
	}
	h1 := globalObj(r, "h1", 2)
	v1 := globalObj(r, "v1", 1)
	sneaky := interp.NewObj(-1, "@sneaky", 2)

	args := []interp.Value{interp.PtrVal(h1, 0), interp.PtrVal(v1, 0)}
	rt.CtxCall(callSite, args)
	rt.CtxCheck(checkSite, args) // matches: no violation
	if len(rec.got) != 0 {
		t.Fatalf("matching check fired: %v", rec.got)
	}
	rt.CtxCheck(checkSite, []interp.Value{interp.PtrVal(sneaky, 0), interp.PtrVal(v1, 0)})
	if len(rec.got) != 1 || rec.got[0].Kind != invariant.Ctx {
		t.Fatalf("redirected argument did not fire: %v", rec.got)
	}
}

// solveSrc compiles src and solves it under cfg.
func solveSrc(t *testing.T, src string, cfg invariant.Config) *pointsto.Result {
	t.Helper()
	m, err := minic.Compile("install", src)
	if err != nil {
		t.Fatal(err)
	}
	return pointsto.New(m, cfg).Solve()
}

// firstSite returns the smallest key of a non-empty site set.
func firstSite[V any](t *testing.T, sites map[int]V) int {
	t.Helper()
	if len(sites) == 0 {
		t.Fatal("no monitor site")
	}
	first := -1
	for s := range sites {
		if first < 0 || s < first {
			first = s
		}
	}
	return first
}

// Install carries a Ctx invariant's recorded actuals and a PWC invariant's
// generated field addresses over to another result that assumes the same
// record, and drops them with a result that does not.
func TestInstallKeepsMonitorState(t *testing.T) {
	ctx, base := solveSrc(t, ctxSrc, invariant.Config{Ctx: true}), solveSrc(t, ctxSrc, invariant.Config{})
	rec := &recorder{}
	rt, ins := buildRuntime(t, ctx, rec)
	callSite, checkSite := firstSite(t, ins.CtxCallArgs), firstSite(t, ins.CtxChecks)
	h1 := globalObj(ctx, "h1", 2)
	h2 := globalObj(ctx, "h2", 2)
	rt.CtxCall(callSite, []interp.Value{interp.PtrVal(h1, 0)})
	install := func(r *pointsto.Result) {
		t.Helper()
		if err := rt.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	install(solveSrc(t, ctxSrc, invariant.Config{Ctx: true}))
	rt.CtxCheck(checkSite, []interp.Value{interp.PtrVal(h2, 0)})
	if len(rec.got) != 1 || rec.got[0].Kind != invariant.Ctx {
		t.Fatalf("redirect after an Install that keeps the record: violations %v, want one Ctx", rec.got)
	}
	install(base)
	install(ctx)
	rt.CtxCheck(checkSite, []interp.Value{interp.PtrVal(h2, 0)})
	if len(rec.got) != 1 {
		t.Fatalf("the recorded actuals outlived a result without the record: violations %v", rec.got)
	}

	pwc := solveSrc(t, pwcSrc, invariant.Config{PWC: true})
	rec = &recorder{}
	rt, ins = buildRuntime(t, pwc, rec)
	site := firstSite(t, ins.FieldSites)
	obj := interp.NewObj(-1, "heap#1", 2)
	rt.FieldAddr(site, interp.PtrVal(obj, 0), interp.PtrVal(obj, 1))
	install(solveSrc(t, pwcSrc, invariant.Config{PWC: true}))
	rt.FieldAddr(site, interp.PtrVal(obj, 1), interp.PtrVal(obj, 2))
	if len(rec.got) != 1 || rec.got[0].Kind != invariant.PWC {
		t.Fatalf("reuse after an Install that keeps the cycle: violations %v, want one PWC", rec.got)
	}
}

// TestInstallCarriesOverlappingPWCState installs the results of restoring,
// one by one, the invariants of a program whose two positive-weight cycles
// join into one (testdata/overlap_pwc.mc): the result that abandons the
// first cycle assumes the second cycle and the joined one, both through
// the second cycle's field site. The second cycle's generated addresses
// must survive that Install, the joined cycle must start without any, and
// an Install that retires both must drop every PWC monitor.
func TestInstallCarriesOverlappingPWCState(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "overlap_pwc.mc"))
	if err != nil {
		t.Fatal(err)
	}
	restore := func(r *pointsto.Result, i int) *pointsto.Result {
		t.Helper()
		next, err := r.Restore(r.Invariants()[i])
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	joined := restore(solveSrc(t, string(src), invariant.All()), 0) // abandon the Ctx record
	recs := joined.Invariants()
	if len(recs) != 2 || recs[1].Kind != invariant.PWC || len(recs[1].CycleFieldSites) != 1 {
		t.Fatalf("records %+v, want two one-site PWC records", recs)
	}
	site := recs[1].Site
	rec := &recorder{}
	rt, _ := buildRuntime(t, joined, rec)
	obj := interp.NewObj(-1, "heap#1", 3)
	rt.FieldAddr(site, interp.PtrVal(obj, 0), interp.PtrVal(obj, 2))

	overlap := restore(joined, 0)
	if recs := overlap.Invariants(); len(recs) != 2 || !slices.Equal(recs[0].CycleFieldSites, []int{site}) || len(recs[1].CycleFieldSites) != 2 {
		t.Fatalf("records %+v, want PWC [%d] and the joined cycle", recs, site)
	}
	if err := rt.Install(overlap); err != nil {
		t.Fatal(err)
	}
	rt.FieldAddr(site, interp.PtrVal(obj, 2), interp.PtrVal(obj, 3))
	if len(rec.got) != 1 || rec.got[0].Kind != invariant.PWC {
		t.Fatalf("reuse after an Install that keeps the cycle: violations %v, want one PWC (the joined cycle starts empty)", rec.got)
	}

	if err := rt.Install(restore(overlap, 1)); err != nil {
		t.Fatal(err)
	}
	rt.FieldAddr(site, interp.PtrVal(obj, 3), interp.PtrVal(obj, 4))
	if len(rec.got) != 1 || len(rt.pwcGroups) != 0 {
		t.Fatalf("after restoring the joined cycle: violations %v, %d PWC monitor sites; want none new", rec.got, len(rt.pwcGroups))
	}
}
