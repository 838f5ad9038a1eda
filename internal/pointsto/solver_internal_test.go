package pointsto

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitset"
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

// TestCopyDedupePerSource: addCopy rejects an edge its source inserted
// while it was a representative, and only that. On a hand-built graph: a
// duplicate from the same representative is rejected; an edge re-added
// after its source absorbed a node holding that target is admitted, whether
// or not the survivor had copy edges of its own; a derived analysis's
// insert stays invisible to its parent; and a rejected duplicate does not
// make the derived analysis own the source.
func TestCopyDedupePerSource(t *testing.T) {
	a := &Analysis{walking: -1}
	for i := 0; i < 16; i++ {
		a.newNode(node{kind: nodeDummy})
	}
	src, y, z, w := 0, 1, 2, 3
	// More targets than a set holds inline, so src's target set is a bit
	// vector a shared copy would write through.
	var targets []int
	for to := 4; len(targets) <= bitset.InlineThreshold; to++ {
		targets = append(targets, to)
		a.addCopy(src, to, 0, false)
	}
	edges := a.stats.CopyEdges
	a.addCopy(src, targets[0], 0, false)
	if a.stats.CopyEdges != edges || len(a.state[src].copies()) != len(targets) {
		t.Fatalf("a duplicate from the same representative was admitted: %d edges, list %v", a.stats.CopyEdges, a.state[src].copies())
	}

	// src absorbs y, which inserted y→12: src's list now holds 12, but src
	// never inserted it, so src→12 is admitted.
	a.addCopy(y, 12, 0, false)
	a.mergeNodes(src, y)
	if a.state[y].out != nil {
		t.Errorf("merged-away node %d holds a copy record", y)
	}
	if !slices.Contains(a.state[src].copies(), 12) {
		t.Fatalf("the survivor did not take the merged node's edge: %v", a.state[src].copies())
	}
	edges = a.stats.CopyEdges
	a.addCopy(src, 12, 0, false)
	if a.stats.CopyEdges != edges+1 {
		t.Error("an edge re-added after its source absorbed a node holding that target was rejected")
	}
	// The same for a survivor without copy edges of its own.
	a.addCopy(w, 13, 0, false)
	a.mergeNodes(z, w)
	edges = a.stats.CopyEdges
	a.addCopy(z, 13, 0, false)
	if a.stats.CopyEdges != edges+1 {
		t.Error("an edge re-added after a survivor without copy edges absorbed a node holding that target was rejected")
	}

	d := a.derive()
	d.addCopy(src, targets[1], 0, false)
	if d.owned[src] || d.stats.CopyEdges != a.stats.CopyEdges {
		t.Errorf("a rejected duplicate was admitted (%v) or owned its source (%v)", d.stats.CopyEdges != a.stats.CopyEdges, d.owned[src])
	}
	list := slices.Clone(a.state[src].copies())
	d.addCopy(src, 14, 0, false)
	if !d.owned[src] || !slices.Contains(d.state[src].copies(), 14) || !d.state[src].out.seen.Has(14) {
		t.Fatal("the derived analysis did not insert a fresh edge into its own record")
	}
	if a.state[src].out.seen.Has(14) || !slices.Equal(a.state[src].copies(), list) {
		t.Error("an insert into the derived analysis is visible to its parent")
	}
	if got := len(d.state[src].copies()); got != len(list)+1 {
		t.Errorf("the derived copy list has %d edges, want %d", got, len(list)+1)
	}
}
