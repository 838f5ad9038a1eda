package pointsto

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/workload"
)

// Determinism: two runs over the same module must produce identical results
// (object order, points-to sets, invariants, callsite targets).
func TestSolveDeterministic(t *testing.T) {
	for _, app := range workload.Apps()[:4] {
		t.Run(app.Name, func(t *testing.T) {
			m := app.MustModule()
			r1 := New(m, invariant.All()).Solve()
			r2 := New(m, invariant.All()).Solve()
			if len(r1.Objects()) != len(r2.Objects()) {
				t.Fatalf("object counts differ: %d vs %d", len(r1.Objects()), len(r2.Objects()))
			}
			for i, o := range r1.Objects() {
				if o.Label() != r2.Objects()[i].Label() || o.Insens != r2.Objects()[i].Insens {
					t.Fatalf("object %d differs: %s/%v vs %s/%v", i,
						o.Label(), o.Insens, r2.Objects()[i].Label(), r2.Objects()[i].Insens)
				}
			}
			for _, p := range r1.TopLevelPointers() {
				if p.Reg == "" {
					continue
				}
				a := fmt.Sprint(r1.PointsTo(p.Fn, p.Reg))
				b := fmt.Sprint(r2.PointsTo(p.Fn, p.Reg))
				if a != b {
					t.Fatalf("%s:%s differs:\n%s\nvs\n%s", p.Fn, p.Reg, a, b)
				}
			}
			if fmt.Sprint(r1.Invariants()) != fmt.Sprint(r2.Invariants()) {
				t.Fatal("invariant lists differ")
			}
			for _, site := range r1.ICallSites() {
				if fmt.Sprint(r1.CallTargets(site)) != fmt.Sprint(r2.CallTargets(site)) {
					t.Fatalf("targets at %d differ", site)
				}
			}
		})
	}
}

// Pearce field saturation: out-of-bounds field derivations are dropped, so
// deep gep chains terminate even with the PWC invariant (no collapse).
func TestPWCDeferralTerminates(t *testing.T) {
	// A direct self-referential positive cycle: p = &(p->next)-style flow via
	// memory. The solver must converge (bounded by struct size).
	src := `
struct node { int v; node* next; int* data; }
void* arena() { return malloc(sizeof(node)); }
int main() {
  node* p;
  node** slot;
  node* q;
  node** conf;
  slot = arena();
  conf = arena();
  p = arena();
  *slot = p;
  while (input()) {
    q = *slot;
    conf = &q->next;
    *slot = *conf;
  }
  return 0;
}
`
	m, err := minic.Compile("pwc-term", src)
	if err != nil {
		t.Fatal(err)
	}
	r := New(m, invariant.Config{PWC: true}).Solve()
	if r.Stats().Iterations > 100000 {
		t.Fatalf("suspiciously many iterations: %d", r.Stats().Iterations)
	}
}

// Union-find invariants after solving: find is idempotent, reps are roots.
func TestUnionFindConsistency(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	a := New(m, invariant.Config{})
	a.Solve()
	for i := range a.nodes {
		r := a.find(i)
		if a.find(r) != r {
			t.Fatalf("rep of %d is not a root", i)
		}
	}
}

// Field-insensitive objects report slot 0 for every element.
func TestInsensSlotCanonicalization(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	r := New(m, invariant.Config{}).Solve()
	insensSeen := false
	for _, o := range r.Objects() {
		if !o.Insens || o.Size <= 1 {
			continue
		}
		insensSeen = true
		for s := 0; s < o.Size; s++ {
			for _, ref := range r.SlotPointsTo(o, s) {
				if ref.Obj.Insens && ref.Slot != 0 {
					t.Fatalf("insens object %s reported at slot %d", ref.Obj.Label(), ref.Slot)
				}
			}
		}
	}
	if !insensSeen {
		t.Skip("no collapsed multi-slot objects in baseline mbedtls")
	}
}

// Stats sanity across all workloads and configs.
func TestStatsSanity(t *testing.T) {
	for _, app := range workload.Apps() {
		m := app.MustModule()
		for _, cfg := range invariant.Ablations() {
			r := New(m, cfg).Solve()
			st := r.Stats()
			if st.Iterations <= 0 || st.CopyEdges <= 0 {
				t.Errorf("%s/%s: degenerate stats %+v", app.Name, cfg.Name(), st)
			}
			if cfg.PWC && st.FieldCollapses > 0 {
				// PWC deferral avoids collapses UNLESS the PA channel (off
				// here only when !cfg.PA) collapsed arrays-of-structs or
				// unknown-size effects; full config may still collapse via
				// non-filterable objects.
				continue
			}
			if invs := len(r.Invariants()); st.MonitorSites < invs {
				t.Errorf("%s/%s: %d monitor sites guard %d invariants",
					app.Name, cfg.Name(), st.MonitorSites, invs)
			}
		}
	}
}

// The measurement population is identical across configurations (required
// for Table 3 comparability).
func TestPopulationStableAcrossConfigs(t *testing.T) {
	m := workload.Libxml().MustModule()
	base := New(m, invariant.Config{}).Solve()
	pop := base.TopLevelPointers()
	distinctObjs := func(r *Result, p PtrRef) map[string]bool {
		out := map[string]bool{}
		if p.Reg == "" {
			return out
		}
		for _, ref := range r.PointsTo(p.Fn, p.Reg) {
			out[ref.Obj.Label()] = true
		}
		return out
	}
	for _, cfg := range invariant.Ablations()[1:] {
		r := New(m, cfg).Solve()
		for _, p := range pop {
			// Object-level subset: optimism only removes objects. (Slot-level
			// counts may grow under PWC deferral, which keeps distinct field
			// elements that the baseline collapse merges.)
			b := distinctObjs(base, p)
			for label := range distinctObjs(r, p) {
				if !b[label] {
					t.Errorf("%s: %v gained object %s under %s", m.Name, p, label, cfg.Name())
				}
			}
		}
	}
}

// TestEdgeSet: the flat copy-edge set behaves as a set of packed pairs
// across several doublings, ids up to math.MaxInt32 included; a derived set
// sees its base's keys and keeps its own inserts from the base, and a chain
// of derivations longer than maxEdgeLayers flattens without losing a key.
func TestEdgeSet(t *testing.T) {
	var keys []uint64
	for i := 0; i < 50000; i++ {
		keys = append(keys, packEdge(i, i+1), packEdge(math.MaxInt32-i, i))
	}
	keys = append(keys, packEdge(math.MaxInt32, math.MaxInt32-1), packEdge(0, math.MaxInt32))
	var s edgeSet
	for i, k := range keys {
		if !s.insert(k) {
			t.Fatalf("key %d (%#x) reported present on its first insert", i, k)
		}
	}
	if s.n != len(keys) || len(s.slots) < 4*len(keys)/3 {
		t.Fatalf("%d keys in %d slots after %d inserts", s.n, len(s.slots), len(keys))
	}
	for i, k := range keys {
		if s.insert(k) {
			t.Fatalf("key %d (%#x) reported absent on a re-insert", i, k)
		}
	}
	c := s.derive()
	for i, k := range keys {
		if c.insert(k) {
			t.Fatalf("key %d (%#x) of the base reported absent in the derived set", i, k)
		}
	}
	onlyC := packEdge(7, math.MaxInt32)
	if !c.insert(onlyC) {
		t.Fatal("a fresh key reported present")
	}
	if s.has(onlyC) {
		t.Error("an insert into the derived set is visible to its base")
	}
	// Derive a chain, one fresh key per level, past the layer bound.
	chain := []*edgeSet{&s, &c}
	fresh := []uint64{onlyC}
	for level := 0; level < 2*maxEdgeLayers; level++ {
		d := chain[len(chain)-1].derive()
		if d.layers >= maxEdgeLayers {
			t.Fatalf("level %d reads through %d layers, want fewer than %d", level, d.layers, maxEdgeLayers)
		}
		k := packEdge(1<<20+level, 3)
		if !d.insert(k) {
			t.Fatalf("level %d: fresh key reported present", level)
		}
		chain = append(chain, &d)
		fresh = append(fresh, k)
	}
	last := chain[len(chain)-1]
	for i, k := range append(keys, fresh...) {
		if !last.has(k) {
			t.Fatalf("key %d (%#x) lost along the derivation chain", i, k)
		}
	}
	if empty := (&edgeSet{}).derive(); empty.base != nil || empty.slots != nil {
		t.Error("deriving an empty set layers on it")
	}
}
