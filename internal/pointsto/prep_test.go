package pointsto

import (
	"slices"
	"testing"

	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/workload"
)

func prepSolve(t *testing.T, src string, cfg invariant.Config, prep bool) (*Result, Stats) {
	t.Helper()
	m, err := minic.Compile("prep", src)
	if err != nil {
		t.Fatal(err)
	}
	a := New(m, cfg)
	a.prep = prep
	r := a.Solve()
	return r, r.Stats()
}

// pick2/pick3 thread a pointer through several pointer-equivalent
// registers, and the mutual assignment of the locals a and b closes a copy
// cycle through memory that hybrid cycle detection predicts offline.
const chainSrc = `
int x;
int y;
int* pick2(int* p) { return p; }
int* pick3(int* p) { return pick2(p); }
int main() {
  int* a;
  int* b;
  a = &x;
  if (input() % 2 == 0) { a = &y; }
  b = pick3(a);
  a = pick3(b);
  return *a + *b;
}
`

// TestPrepMergesEquivalentNodes: prep is on by default (the prep-on leg is a
// plain New), merges the chain's pointer-equivalent nodes through hybrid
// cycle detection, and changes nothing observable.
func TestPrepMergesEquivalentNodes(t *testing.T) {
	m, err := minic.Compile("prep", chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	rOn := New(m, invariant.Config{}).Solve()
	rOff, _ := prepSolve(t, chainSrc, invariant.Config{}, false)
	if sOn := rOn.Stats(); sOn.HCDCollapses == 0 {
		t.Errorf("hybrid cycle detection merged nothing on the chain: %+v", sOn)
	}
	assertSameResult(t, rOff, rOn)
}

// MiniC locals live in memory, so the mutual assignment of p and q below is
// a copy cycle through loads and stores — invisible to a cycle search over
// register copy edges, but predicted exactly by the offline HCD ref graph and collapsed online in O(1) when the stack objects arrive.
const hcdSrc = `
int x;
int main() {
  int* p;
  int* q;
  p = &x;
  while (input()) {
    q = p;
    p = q;
  }
  return *p;
}
`

func TestHCDCollapsesMemoryCycle(t *testing.T) {
	rOn, sOn := prepSolve(t, hcdSrc, invariant.Config{}, true)
	rOff, _ := prepSolve(t, hcdSrc, invariant.Config{}, false)
	if sOn.HCDCollapses == 0 {
		t.Errorf("no online HCD collapses on a memory cycle: %+v", sOn)
	}
	assertSameResult(t, rOff, rOn)
}

// The loop's two statements copy b into a and a back into b through the
// pointers pa and pb: a copy cycle between the stack objects a and b, two
// loads away from the registers that hold pa and pb. HCD's offline ref graph
// sees four unrelated registers and predicts nothing; the cycle closes only
// once the solver learns where pa and pb point, so the LCD fallback must
// find it online.
const lcdSrc = `
int x;
int main() {
  int* a;
  int* b;
  int** pa;
  int** pb;
  pa = &a;
  pb = &b;
  a = &x;
  while (input()) {
    *pa = *pb;
    *pb = *pa;
  }
  return *b;
}
`

// TestLCDCollapsesUnpredictedCycle: the LCD fallback collapses the cycle HCD
// cannot predict, the answer equals the no-prep reference, and the probe
// marks the solve left on the copy edges stay with it: a derived analysis
// drops them from every copy list it owns, and owning them leaves the
// receiver's marks in place.
func TestLCDCollapsesUnpredictedCycle(t *testing.T) {
	rOn, sOn := prepSolve(t, lcdSrc, invariant.Config{}, true)
	rOff, _ := prepSolve(t, lcdSrc, invariant.Config{}, false)
	if sOn.LCDCollapses == 0 || sOn.HCDCollapses != 0 {
		t.Errorf("want LCD collapses and no HCD ones on an unpredicted cycle: %+v", sOn)
	}
	assertSameResult(t, rOff, rOn)
	marks := probeMarks(rOn.a)
	if marks == 0 {
		t.Fatal("the solve left no probe marks on its copy edges")
	}
	c := rOn.a.derive()
	for n := range c.nodes {
		c.own(n)
	}
	if n := probeMarks(c); n != 0 {
		t.Errorf("the derived analysis's own copy lists carry %d probe marks, want none", n)
	}
	if n := probeMarks(rOn.a); n != marks {
		t.Errorf("deriving changed the receiver's probe marks: %d, was %d", n, marks)
	}
}

// TestMergeKeepsWalkedEdges: a merge into the node whose copy list
// processNode is walking may put the other node's longer list in front;
// the walk offset must still point at the walked edges, marks included.
func TestMergeKeepsWalkedEdges(t *testing.T) {
	m, err := minic.Compile("lcd", lcdSrc)
	if err != nil {
		t.Fatal(err)
	}
	a := New(m, invariant.Config{})
	x, y := 0, 1
	walked := []copyEdge{2 | probedBit, 3}
	a.state[x].out = &copyOut{to: slices.Clone(walked)}
	a.state[y].out = &copyOut{to: []copyEdge{4, 5, 6}}
	a.walking, a.walkOff = x, 0
	if !a.mergeNodes(x, y) {
		t.Fatal("nodes 0 and 1 did not merge")
	}
	if got := a.state[x].copies(); len(got) != 5 || !slices.Equal(got[a.walkOff:a.walkOff+len(walked)], walked) {
		t.Errorf("merged list %v, walk offset %d: lost the walked edges %v", got, a.walkOff, walked)
	}
}

// TestProcessNodeDropsMergedEdges: before walking its copy list,
// processNode drops the edges whose target a collapse already merged into
// the node, and keeps the live ones in order with their probe marks.
func TestProcessNodeDropsMergedEdges(t *testing.T) {
	m, err := minic.Compile("lcd", lcdSrc)
	if err != nil {
		t.Fatal(err)
	}
	a := New(m, invariant.Config{})
	// v[0] is the processed node; v[1], v[2] and v[3] are merged into it,
	// v[3] through v[1]; v[4], v[5] and v[6] are live targets.
	obj := slices.IndexFunc(a.nodes, func(nd node) bool { return nd.kind == nodeObj })
	var v []int
	for i, nd := range a.nodes {
		if nd.kind != nodeObj && len(v) < 7 {
			v = append(v, i)
		}
	}
	if obj < 0 || len(v) < 7 {
		t.Fatalf("want an object node and 7 other nodes, got %d and %d", obj, len(v))
	}
	n := v[0]
	a.rep[v[1]], a.rep[v[2]], a.rep[v[3]] = int32(n), int32(n), int32(v[1])
	ns := a.state[n]
	ns.cold = nil
	e := func(i int) copyEdge { return copyEdge(v[i]) }
	ns.out = &copyOut{to: []copyEdge{e(1), e(4), e(2) | probedBit, e(5) | probedBit, e(3), e(6)}}
	a.noDelta = false
	a.ptsOf(n).Add(obj)
	a.deltaOf(n).Add(obj)
	a.processNode(n)
	if want := []copyEdge{e(4), e(5) | probedBit, e(6)}; !slices.Equal(a.state[n].copies(), want) {
		t.Errorf("copy list after processNode = %v, want %v", a.state[n].copies(), want)
	}
	for _, to := range v[4:] {
		if p := a.state[to].pts; p == nil || !p.Has(obj) {
			t.Errorf("live edge to %d did not propagate the pending pointee", to)
		}
	}
}

// probeMarks counts the copy edges of a marked as probed by LCD.
func probeMarks(a *Analysis) int {
	n := 0
	for _, ns := range a.state {
		for _, e := range ns.copies() {
			if e.probed() {
				n++
			}
		}
	}
	return n
}

// TestPrepRespectsPWCPolicy: on a PWC-heavy app (mbedtls's heap wrappers),
// prep must leave every positive-weight cycle intact for the optimistic
// policy: the PWC count and the invariant records must be identical with
// prep on and off under every configuration.
func TestPrepRespectsPWCPolicy(t *testing.T) {
	src := workload.MbedTLS().Source
	for _, cfg := range []invariant.Config{{}, {PWC: true}, {PA: true, PWC: true, Ctx: true}} {
		rOn, sOn := prepSolve(t, src, cfg, true)
		rOff, sOff := prepSolve(t, src, cfg, false)
		if cfg.PWC && (sOn.PWCs == 0 || sOn.PWCs != sOff.PWCs) {
			t.Errorf("cfg %+v: PWC count diverged: prep %d, no-prep %d", cfg, sOn.PWCs, sOff.PWCs)
		}
		assertSameResult(t, rOff, rOn)
		recsOn := rOn.Invariants()
		recsOff := rOff.Invariants()
		if len(recsOn) != len(recsOff) {
			t.Errorf("cfg %+v: %d invariant records with prep, %d without", cfg, len(recsOn), len(recsOff))
		}
	}
}

// assertSameResult compares the externally observable fixpoints of two runs
// via the differential-oracle fingerprint.
func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	fw, fg := fingerprint(want), fingerprint(got)
	if fw != fg {
		t.Errorf("results diverge:\n%s", diffLines(fw, fg))
	}
}

// TestDeltaAutoMode: New turns delta propagation off below
// DeltaAutoThreshold nodes and leaves it on above.
func TestDeltaAutoMode(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		noDelta   bool
	}{
		{"chain", chainSrc, true},
		{"scaled", scaledSrc, false},
	} {
		m, err := minic.Compile(tc.name, tc.src)
		if err != nil {
			t.Fatal(err)
		}
		a := New(m, invariant.Config{})
		if below := len(a.nodes) < DeltaAutoThreshold; below != tc.noDelta {
			t.Fatalf("%s: %d nodes, want below threshold %d = %v",
				tc.name, len(a.nodes), DeltaAutoThreshold, tc.noDelta)
		}
		if a.noDelta != tc.noDelta {
			t.Errorf("%s (%d nodes): New set noDelta = %v, want %v",
				tc.name, len(a.nodes), a.noDelta, tc.noDelta)
		}
	}
}

// TestPrepDoesWorkOnRandprog1k: on the smallest scaled workload, the
// default solve (prep on) collapses cycles online, never adds sccPass
// sweeps, pops fewer worklist items than the full, no-prep reference, and
// fingerprints identically to it.
func TestPrepDoesWorkOnRandprog1k(t *testing.T) {
	m := workload.ByName("randprog-1k").MustModule()
	ref := solveVariant(m, invariant.All(), false, false)
	got := New(m, invariant.All()).Solve()
	sRef, sGot := ref.Stats(), got.Stats()
	if sGot.HCDCollapses == 0 {
		t.Errorf("hybrid cycle detection fired no online collapses: %+v", sGot)
	}
	if sGot.SCCPasses > sRef.SCCPasses {
		t.Errorf("prep ran %d sccPass sweeps, reference %d — prep must not add sweeps",
			sGot.SCCPasses, sRef.SCCPasses)
	}
	if sGot.Iterations >= sRef.Iterations {
		t.Errorf("prep popped %d worklist items, reference %d — the merged graph should be cheaper",
			sGot.Iterations, sRef.Iterations)
	}
	assertSameResult(t, ref, got)
}

// TestDeltaPropagatesFewerBits: above DeltaAutoThreshold the default solve
// runs delta propagation, which consumes fewer pointee bits than the full,
// no-prep reference and fingerprints identically to it.
func TestDeltaPropagatesFewerBits(t *testing.T) {
	m, err := minic.Compile("scaled", scaledSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref := solveVariant(m, invariant.All(), false, false)
	got := New(m, invariant.All()).Solve()
	b, r := got.Stats().BitsPropagated, ref.Stats().BitsPropagated
	if b >= r {
		t.Errorf("default solve propagated %d bits, reference %d — delta must propagate fewer", b, r)
	}
	t.Logf("bits propagated: default %d, reference %d", b, r)
	assertSameResult(t, ref, got)
}
