package pointsto

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/workload"
)

// restoreExcept derives from r the result that abandons every invariant of a
// kind cfg does not assume, and solves under cfg from then on; cfg must be a
// subset of r's configuration. RestoreAll is its empty-configuration case.
func restoreExcept(r *Result, cfg invariant.Config) (*Result, error) {
	a := r.a.derive()
	a.cfg = cfg
	// Re-list after each readmit: restoring one PWC record also retires
	// any other record whose sites it covers.
	for {
		recs := a.invariantRecords()
		i := slices.IndexFunc(recs, func(rec invariant.Record) bool { return !cfg.Assumes(rec.Kind) })
		if i < 0 {
			return a.SolveCtx(context.Background(), Budget{})
		}
		if err := a.readmit(recs[i]); err != nil {
			return nil, err
		}
	}
}

// TestRestoreKeepsDerivedFallback: results derived by RestoreAll and
// restoreExcept share the optimistic analysis's state, so restoring from the
// optimistic Result invariant by invariant afterwards must leave every one
// of them unchanged: the fallback, a view per ablation configuration, and
// the view that restores nothing (a snapshot of the optimistic result).
// Each view must also do the same work as one derived from a fresh solve.
// Every Restore must leave its receiver's answer (fingerprint) and state
// (stateOf) byte-identical, and the finished analysis they all derive from
// must end with its state unchanged. The last restored result must equal
// the fallback.
func TestRestoreKeepsDerivedFallback(t *testing.T) {
	for name, m := range restoreModules(t) {
		t.Run(name, func(t *testing.T) {
			opt := New(m, invariant.All()).Solve()
			if len(opt.Invariants()) == 0 {
				t.Skip("assumes no invariant")
			}
			orig := opt.a
			origState := stateOf(orig)
			fb, err := opt.RestoreAll(context.Background(), Budget{})
			if err != nil {
				t.Fatal(err)
			}
			views := map[string]*Result{"derived fallback": fb}
			for _, cfg := range invariant.Ablations() {
				v, err := restoreExcept(opt, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Earlier derivations wrote nothing of opt's: this one does
				// the same work as a derivation from a fresh solve.
				ref, err := restoreExcept(New(m, invariant.All()).Solve(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if v.Stats() != ref.Stats() {
					t.Errorf("%s view: stats %+v after earlier derivations, %+v from a fresh solve",
						oracleConfigs[cfg], v.Stats(), ref.Stats())
				}
				views[oracleConfigs[cfg]] = v
			}
			want := map[string]string{}
			for view, r := range views {
				want[view] = fingerprint(r)
			}
			cur := opt
			for recs := cur.Invariants(); len(recs) > 0; recs = cur.Invariants() {
				curPrint, curState := fingerprint(cur), stateOf(cur.a)
				next, err := cur.Restore(recs[0])
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(cur); got != curPrint {
					t.Fatalf("restoring %v changed its receiver's answer:\n%s", recs[0].Kind, diffLines(curPrint, got))
				}
				if got := stateOf(cur.a); got != curState {
					t.Fatalf("restoring %v wrote its receiver's state:\n%s", recs[0].Kind, diffLines(curState, got))
				}
				for view, r := range views {
					if got := fingerprint(r); got != want[view] {
						t.Fatalf("restoring %v from the optimistic result changed the %s view:\n%s",
							recs[0].Kind, view, diffLines(want[view], got))
					}
				}
				cur = next
			}
			if got := stateOf(orig); got != origState {
				t.Errorf("deriving and restoring wrote the state of the finished optimistic analysis:\n%s",
					diffLines(origState, got))
			}
			if got := fingerprint(cur); got != want["derived fallback"] {
				t.Errorf("restoring every invariant one by one differs from the derived fallback:\n%s",
					diffLines(want["derived fallback"], got))
			}
		})
	}
}

// TestDeriveOwnsOnlyWrittenNodes: the fallback derived from the scaled
// program's optimistic solve re-solves a handful of nodes, so it must own a
// handful: at most the nodes its re-solve popped plus those whose set or
// copy list it changed. Every other node keeps the parent's set pointer.
func TestDeriveOwnsOnlyWrittenNodes(t *testing.T) {
	m, err := minic.Compile("scaled", scaledSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := New(m, invariant.All()).Solve()
	d, err := opt.RestoreAll(context.Background(), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	owned, changed := 0, 0
	for n := range opt.a.nodes {
		if d.a.owned[n] {
			owned++
		}
		p, q := opt.a.state[n].pts, d.a.state[n].pts
		if (p == nil) != (q == nil) || p != nil && (p.Len() != q.Len() || !p.SubsetOf(q)) || len(opt.a.state[n].copies()) != len(d.a.state[n].copies()) {
			changed++
		}
	}
	pops := d.Stats().Iterations - opt.Stats().Iterations
	if owned == 0 || owned > pops+changed {
		t.Errorf("derived fallback owns %d of %d nodes; its re-solve popped %d and changed %d",
			owned, len(opt.a.nodes), pops, changed)
	}
	checkOwnership(t, "derived fallback", d.a, opt.a)
	t.Logf("owns %d of %d nodes (%d pops, %d changed)", owned, len(opt.a.nodes), pops, changed)
}

// TestFinishedSolveHoldsNoDelta: delta sets only serve a running solve, so
// a finished Solve, a Restore and a RestoreAll leave no node holding one,
// not even an empty one, under the fallback and the optimistic
// configuration.
func TestFinishedSolveHoldsNoDelta(t *testing.T) {
	for name, m := range oracleModules(t) {
		for _, cfg := range []invariant.Config{{}, invariant.All()} {
			r := New(m, cfg).Solve()
			views := map[string]*Result{"Solve": r}
			fb, err := r.RestoreAll(context.Background(), Budget{})
			if err != nil {
				t.Fatal(err)
			}
			views["RestoreAll"] = fb
			if recs := r.Invariants(); len(recs) > 0 {
				if views["Restore"], err = r.Restore(recs[0]); err != nil {
					t.Fatal(err)
				}
			}
			for view, res := range views {
				held := 0
				for _, ns := range res.a.state {
					if ns.delta != nil {
						held++
					}
				}
				if held != 0 {
					t.Errorf("%s %s under %s: %d nodes hold a delta set", name, view, oracleConfigs[cfg], held)
				}
			}
		}
	}
}

// TestSpareSetsDistinct: a delta set is held by at most one node or by the
// spare list, never both, and the spare list holds only empty delta sets,
// never a points-to set. Checked at every abort of a solve cut into short
// budgets and resumed until it converges to the unbudgeted answer, and on
// a derived re-solve cut the same way.
func TestSpareSetsDistinct(t *testing.T) {
	m, err := minic.Compile("scaled", scaledSrc)
	if err != nil {
		t.Fatal(err)
	}
	check := func(a *Analysis, when string) {
		t.Helper()
		held := map[*bitset.Set]string{}
		for n, ns := range a.state {
			if s := ns.delta; s != nil {
				if prev, ok := held[s]; ok {
					t.Fatalf("%s: node %d's delta is also %s", when, n, prev)
				}
				held[s] = "a node's delta"
			}
		}
		for n, ns := range a.state {
			if s := ns.pts; s != nil {
				if prev, ok := held[s]; ok {
					t.Fatalf("%s: node %d's points-to set is also %s", when, n, prev)
				}
			}
		}
		for i, s := range a.spare {
			if prev, ok := held[s]; ok {
				t.Fatalf("%s: spare set %d is also %s", when, i, prev)
			}
			if !s.Empty() {
				t.Fatalf("%s: spare set %d holds %d elements", when, i, s.Len())
			}
			held[s] = "on the spare list"
		}
	}
	resume := func(a *Analysis, steps int64) (*Result, int) {
		aborts := 0
		for {
			r, err := a.SolveCtx(context.Background(), Budget{MaxSteps: steps})
			if err == nil {
				check(a, "finished")
				if len(a.spare) != 0 {
					t.Errorf("a finished solve keeps %d spare sets", len(a.spare))
				}
				return r, aborts
			}
			aborts++
			check(a, "aborted")
		}
	}
	a := New(m, invariant.All())
	if a.noDelta {
		t.Fatal("the scaled program runs without delta sets")
	}
	opt, aborts := resume(a, 700)
	if aborts == 0 {
		t.Fatal("the budget never cut the solve")
	}
	if got, want := fingerprint(opt), fingerprint(New(m, invariant.All()).Solve()); got != want {
		t.Fatalf("resumed solve differs from an unbudgeted one:\n%s", diffLines(want, got))
	}
	// A derived re-solve recycles into its own spare list: restore every
	// invariant of mbedtls (PA, PWC and Ctx ones) with delta sets forced on,
	// one step per SolveCtx.
	root := New(workload.MbedTLS().MustModule(), invariant.All())
	root.noDelta = false
	parent := root.Solve()
	d := parent.a.derive()
	d.cfg = invariant.Config{}
	for {
		recs := d.invariantRecords()
		if len(recs) == 0 {
			break
		}
		if err := d.readmit(recs[0]); err != nil {
			t.Fatal(err)
		}
	}
	derived, aborts := resume(d, 1)
	if aborts == 0 {
		t.Fatal("the budget never cut the derived re-solve")
	}
	checkOwnership(t, "derived re-solve", d, parent.a)
	if got, want := fingerprint(derived), fingerprint(New(root.mod, invariant.Config{}).Solve()); got != want {
		t.Errorf("resumed derived re-solve differs from a fresh fallback:\n%s", diffLines(want, got))
	}
}

// stateOf renders every part of an analysis's state a re-solve may write:
// per node the representative and the record, that is the points-to set,
// delta and every constraint list (Field-Of flags, copy-edge probe marks and
// each icall site's connected targets included), the HCD entries' fired
// marks, every object's field sensitivity, the assumption table with the
// restored PWC sites, and the sizes of the node maps. A node's copy record
// renders as its list and the targets it inserted (seen).
func stateOf(a *Analysis) string {
	var b strings.Builder
	for n, ns := range a.state {
		c := ns.cons()
		var seen *bitset.Set
		if ns.out != nil {
			seen = &ns.out.seen
		}
		fmt.Fprintf(&b, "%d rep=%d pts=%v delta=%v copy=%v seen=%v cold=%v load=%v store=%v arith=%v hcd=%v",
			n, a.rep[n], ns.pts, ns.delta, ns.copies(), seen, ns.cold != nil, c.loadTo, c.storeFrom, c.arithTo, c.hcd)
		for _, e := range c.gepTo {
			fmt.Fprintf(&b, " gep%+v", *e)
		}
		for _, s := range c.icalls {
			fmt.Fprintf(&b, " icall %d %v", s.site, s.connected)
		}
		b.WriteByte('\n')
	}
	for i, e := range a.hcdEntries {
		fmt.Fprintf(&b, "hcd %d fired=%v\n", i, e.fired)
	}
	for _, o := range a.objects {
		fmt.Fprintf(&b, "%s insens=%v\n", o.Label(), o.Insens)
	}
	for _, e := range a.assumed {
		fmt.Fprintf(&b, "assumed held=%v %+v\n", e.held, e.Record)
	}
	fmt.Fprintf(&b, "pwc restored=%v\n", a.pwcRestored)
	fmt.Fprintf(&b, "regs=%d rets=%d\n", len(a.regNodes), len(a.retNodes))
	// Appends past the end of a table or a list write its spare capacity.
	fmt.Fprintf(&b, "spare capacity: state %d rep %d inWL %d records %d\n",
		pastLen(a.state), pastLen(a.rep), pastLen(a.inWL), recordsPastLen(a))
	return b.String()
}

// pastLen counts the non-zero entries in a table's capacity past its length.
func pastLen[T comparable](table []T) int {
	var zero T
	n := 0
	for _, v := range table[len(table):cap(table)] {
		if v != zero {
			n++
		}
	}
	return n
}

// recordsPastLen counts the non-zero records in a's slab past its length,
// and the non-zero entries past the length of every record's lists, cold
// ones included.
func recordsPastLen(a *Analysis) int {
	n := 0
	for _, r := range a.slab[len(a.slab):cap(a.slab)] {
		if !reflect.ValueOf(r).IsZero() {
			n++
		}
	}
	for _, ns := range a.state {
		c := ns.cons()
		n += pastLen(ns.copies()) + pastLen(c.gepTo) + pastLen(c.loadTo) + pastLen(c.storeFrom) +
			pastLen(c.arithTo) + pastLen(c.icalls) + pastLen(c.hcd)
	}
	return n
}

// unfiredHCDSrc has an offline-predicted load/store cycle through two
// pointers that never point anywhere, so its HCD entry never fires.
const unfiredHCDSrc = `
int** g;
void swap(int** p, int** q) {
  *p = *q;
  *q = *p;
}
int main() {
  swap(g, g);
  return 0;
}
`

// TestDerivedWritesNoParentState drives analyses derived from finished
// ones down the write paths the restore corpus rarely reaches, each on a
// fresh derivation so no earlier write has owned the node it needs: a
// positive-weight cycle first seen after the derivation, merges of nodes
// with load and with store lists, a first HCD firing, a new node, a field
// collapse, a PWC restore clearing the cycle's marks, a new icall target,
// the store and return a Ctx restore re-admits (paGrowSrc's id returns its
// argument), a positive-weight cycle whose Field-Of source no new fact
// reaches, new Field-Of, load and PtrAdd constraints, and a full-set flush
// into a delta set. Each derived analysis re-solves, and the finished analysis must keep its
// state byte for byte.
func TestDerivedWritesNoParentState(t *testing.T) {
	mods := []*ir.Module{workload.MbedTLS().MustModule()}
	for i, src := range []string{unfiredHCDSrc, paGrowSrc} {
		m, err := minic.Compile([]string{"unfired-hcd", "pagrow"}[i], src)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	for _, w := range derivedWrites {
		took := false
		for _, mod := range mods {
			parent := New(mod, w.cfg).Solve().a
			before := stateOf(parent)
			d := parent.derive()
			if !w.apply(d) {
				continue
			}
			took = true
			if _, err := d.SolveCtx(context.Background(), Budget{}); err != nil {
				t.Fatal(err)
			}
			if got := stateOf(parent); got != before {
				t.Errorf("%s on %s wrote the parent's state:\n%s", w.name, mod.Name, diffLines(before, got))
			}
		}
		if !took {
			t.Errorf("no module offers the %s write", w.name)
		}
	}
}

// reps lists a's representative nodes that satisfy keep.
func reps(a *Analysis, keep func(n int) bool) []int {
	var out []int
	for n := range a.nodes {
		if a.find(n) == n && keep(n) {
			out = append(out, n)
		}
	}
	return out
}

// derivedWrites are the rare writes TestDerivedWritesNoParentState drives,
// on an analysis derived from one solved under cfg; apply reports whether
// the analysis offered the write.
var derivedWrites = []struct {
	name  string
	cfg   invariant.Config
	apply func(d *Analysis) bool
}{
	{"new positive-weight cycle", invariant.Config{}, func(d *Analysis) bool {
		// A positive Field-Of edge outside every cycle, closed by a new
		// copy edge back to its source.
		for _, n := range reps(d, func(int) bool { return true }) {
			for _, e := range d.state[n].cons().gepTo {
				if to := d.find(int(e.to)); e.off > 0 && !e.pwcSeen && to != n {
					d.addCopy(to, n, 0, false)
					return true
				}
			}
		}
		return false
	}},
	{"merge of load holders", invariant.Config{}, func(d *Analysis) bool {
		ns := reps(d, func(n int) bool { return len(d.state[n].cons().loadTo) > 0 })
		return len(ns) >= 2 && d.mergeNodes(ns[0], ns[1])
	}},
	{"merge of store holders", invariant.Config{}, func(d *Analysis) bool {
		ns := reps(d, func(n int) bool { return len(d.state[n].cons().storeFrom) > 0 })
		return len(ns) >= 2 && d.mergeNodes(ns[0], ns[1])
	}},
	{"first HCD firing", invariant.Config{}, func(d *Analysis) bool {
		for v, ns := range d.state {
			for _, ei := range ns.cons().hcd {
				if !d.hcdEntries[ei].fired && d.find(v) == v {
					d.hcdFire(v, nil)
					return true
				}
			}
		}
		return false
	}},
	{"new register node", invariant.Config{}, func(d *Analysis) bool {
		n := d.regNode("main", "%fresh")
		d.addCopy(n, n-1, 0, false)
		return true
	}},
	{"field collapse", invariant.Config{}, func(d *Analysis) bool {
		for _, o := range d.objects {
			if !o.Insens && o.Size > 1 {
				d.makeFieldInsensitive(o)
				return true
			}
		}
		return false
	}},
	{"PWC restore", invariant.All(), func(d *Analysis) bool {
		// The restore clears the cycle's pwcSeen marks, and the re-solve
		// re-finds the cycle and collapses it.
		for _, rec := range d.invariantRecords() {
			if rec.Kind == invariant.PWC {
				return d.readmit(rec) == nil
			}
		}
		return false
	}},
	{"new icall target", invariant.Config{}, func(d *Analysis) bool {
		// A function object the site has not connected reaches its function
		// pointer; the re-solve connects it.
		for _, n := range reps(d, func(n int) bool { return len(d.state[n].cons().icalls) > 0 }) {
			s := d.state[n].cons().icalls[0]
			for _, o := range d.objects {
				if o.Kind == ObjFunc && !s.connected[o.Index] {
					return d.addToPts(n, o.NodeBase, 0, -1, false)
				}
			}
		}
		return false
	}},
	{"positive-weight cycle through an unowned node", invariant.Config{}, func(d *Analysis) bool {
		// The new copy edge adds nothing to the Field-Of edge's source, so
		// only the cycle's first sighting writes that node.
		for _, n := range reps(d, func(int) bool { return true }) {
			for _, e := range d.state[n].cons().gepTo {
				to := d.find(int(e.to))
				if e.off > 0 && !e.pwcSeen && to != n && subset(d.state[to].pts, d.state[n].pts) {
					d.addCopy(to, n, 0, false)
					return !d.owned[n]
				}
			}
		}
		return false
	}},
	{"constraints added after the solve", invariant.Config{}, func(d *Analysis) bool {
		ns := reps(d, func(n int) bool { return d.nodes[n].kind == nodeReg && d.state[n].pts != nil })
		if len(ns) < 4 {
			return false
		}
		// One source each, so each constraint is the first write to its node.
		d.addGep(ns[0], ns[3], 1, 0)
		d.addLoad(ns[1], ns[3], 0)
		d.addArith(ns[2], ns[3], 0)
		return true
	}},
	{"full-set flush with delta sets on", invariant.Config{}, func(d *Analysis) bool {
		ns := reps(d, func(n int) bool { return d.state[n].pts != nil && !d.state[n].pts.Empty() })
		if len(ns) == 0 {
			return false
		}
		d.noDelta = false
		d.seedDelta(ns[0])
		return true
	}},
	{"Ctx restore of a store", invariant.All(), func(d *Analysis) bool { return readmitCtx[*ir.Store](d) }},
	{"Ctx restore of a return", invariant.All(), func(d *Analysis) bool { return readmitCtx[*ir.Ret](d) }},
}

// subset reports whether every element of x is in y; nil is empty.
func subset(x, y *bitset.Set) bool {
	return x == nil || x.Empty() || y != nil && x.SubsetOf(y)
}

// readmitCtx restores the first Ctx record whose site is an instruction of
// type T and reports whether it found one.
func readmitCtx[T ir.Instr](d *Analysis) bool {
	for _, rec := range d.invariantRecords() {
		if _, ok := d.mod.InstrByID(rec.Site).(T); ok && rec.Kind == invariant.Ctx {
			return d.readmit(rec) == nil
		}
	}
	return false
}

// pwcSites lists the field sites of every record in recs, PWC records
// only, in order.
func pwcSites(recs []invariant.Record) [][]int {
	var out [][]int
	for _, rec := range recs {
		if rec.Kind == invariant.PWC {
			out = append(out, rec.CycleFieldSites)
		}
	}
	return out
}

// TestOverlappingPWCRecords drives a program whose two positive-weight
// cycles join once a Ctx record is restored (testdata/overlap_pwc.mc).
// Restoring one of the two cycles' records re-finds the joined cycle, which
// stays assumed through the other site, so the result holds two PWC
// records, one covering the other's sites. Restoring either then retires
// both, and every way of restoring the rest ends at the fallback.
func TestOverlappingPWCRecords(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "overlap_pwc.mc"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := minic.Compile("overlap_pwc", string(src))
	if err != nil {
		t.Fatal(err)
	}
	fallback := fingerprint(New(m, invariant.Config{}).Solve())
	restore := func(r *Result, rec invariant.Record) *Result {
		t.Helper()
		next, err := r.Restore(rec)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}

	opt := New(m, invariant.All()).Solve()
	recs := opt.Invariants()
	cycles := pwcSites(recs)
	if len(recs) != 3 || recs[0].Kind != invariant.Ctx || len(cycles) != 2 || len(cycles[0]) != 1 || len(cycles[1]) != 1 {
		t.Fatalf("optimistic records %+v, want one Ctx record and two one-site PWC records", recs)
	}
	a, b := cycles[0][0], cycles[1][0]

	joined := restore(opt, recs[0])
	if got := pwcSites(joined.Invariants()); !slices.EqualFunc(got, cycles, slices.Equal) || len(joined.Invariants()) != 2 {
		t.Fatalf("after restoring the Ctx record: records %+v, want the two PWC records unchanged", joined.Invariants())
	}
	overlap := restore(joined, joined.Invariants()[0])
	recs = overlap.Invariants()
	if got, want := pwcSites(recs), [][]int{{b}, {a, b}}; len(recs) != 2 || !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("after restoring PWC %v: records %+v, want PWC sites %v", cycles[0], recs, want)
	}

	for i, rec := range recs {
		r := restore(overlap, rec)
		if left := r.Invariants(); len(left) != 0 {
			t.Errorf("restoring PWC %v left %+v, want both records retired", rec.CycleFieldSites, left)
		}
		if got := fingerprint(r); got != fallback {
			t.Errorf("restoring PWC record %d differs from a fresh fallback:\n%s", i, diffLines(fallback, got))
		}
	}
	if len(overlap.Invariants()) != 2 {
		t.Fatalf("restores wrote their receiver: %+v", overlap.Invariants())
	}
	all, err := overlap.RestoreAll(context.Background(), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(all); got != fallback {
		t.Errorf("RestoreAll of the overlapping records differs from a fresh fallback:\n%s", diffLines(fallback, got))
	}
}

// paGrowSrc filters three struct objects at its PtrAdd site under the Ctx
// invariant; restoring the Ctx record of id lets a fourth, with a smaller
// object number than the three, reach the site.
const paGrowSrc = `
struct S { int a; int b; }
S s0;
S s1;
S s2;
S s3;
char* id(char* p) { return p; }
int main() {
  char* x;
  char* y;
  int i;
  i = input();
  x = id(&s1);
  if (input()) { x = &s2; }
  if (input()) { x = &s3; }
  y = id(&s0);
  *(x + i) = 0;
  *y = 0;
  return 0;
}
`

// TestRestoreGrowsPARecordAlone: a restore whose re-solve filters one more
// object at a PA site that stays assumed reports the grown record, while
// the receiver's records and state stay as they were.
func TestRestoreGrowsPARecordAlone(t *testing.T) {
	m, err := minic.Compile("pagrow", paGrowSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := New(m, invariant.All()).Solve()
	recs := opt.Invariants()
	if len(recs) != 2 || recs[0].Kind != invariant.Ctx || recs[1].Kind != invariant.PA || len(recs[1].FilteredObjs) != 3 {
		t.Fatalf("optimistic records %+v, want a Ctx record and a PA record of three objects", recs)
	}
	before, state := fmt.Sprintf("%+v", recs), stateOf(opt.a)
	grown, err := opt.Restore(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := grown.Invariants(); len(got) != 1 || got[0].Kind != invariant.PA || len(got[0].FilteredObjs) != 4 ||
		!slices.IsSorted(got[0].FilteredObjs) || got[0].FilteredObjs[0] >= recs[1].FilteredObjs[0] {
		t.Fatalf("after restoring the Ctx record: %+v, want the PA record grown by a smaller object", got)
	}
	if got := fmt.Sprintf("%+v", opt.Invariants()); got != before {
		t.Errorf("the restore changed its receiver's records:\n%s", diffLines(before, got))
	}
	if got := stateOf(opt.a); got != state {
		t.Errorf("the restore wrote its receiver's state:\n%s", diffLines(state, got))
	}
}

// TestRestoreRejectsUnassumedPWC: Restore returns an error, and writes
// nothing of its receiver, for a PWC record the receiver does not hold: on
// curl under every invariant, which assumes no PWC record, and on mbedtls
// for its held record with another site list, for one without sites, and
// for the record once it is restored.
func TestRestoreRejectsUnassumedPWC(t *testing.T) {
	curl := New(workload.ByName("curl").MustModule(), invariant.All()).Solve()
	if len(pwcSites(curl.Invariants())) != 0 {
		t.Fatalf("curl assumes PWC records %v", pwcSites(curl.Invariants()))
	}
	mbed := New(workload.MbedTLS().MustModule(), invariant.All()).Solve()
	i := slices.IndexFunc(mbed.Invariants(), func(rec invariant.Record) bool { return rec.Kind == invariant.PWC })
	if i < 0 {
		t.Fatal("mbedtls assumes no PWC record")
	}
	held := mbed.Invariants()[i]
	restored, err := mbed.Restore(held)
	if err != nil {
		t.Fatal(err)
	}
	wider := held
	wider.CycleFieldSites = append(slices.Clone(held.CycleFieldSites), held.CycleFieldSites[len(held.CycleFieldSites)-1]+1)
	cases := []struct {
		name string
		r    *Result
		rec  invariant.Record
	}{
		{"curl", curl, invariant.Record{Kind: invariant.PWC, Site: 1, CycleFieldSites: []int{1}}},
		{"mbedtls, other sites", mbed, wider},
		{"mbedtls, no sites", mbed, invariant.Record{Kind: invariant.PWC, Site: held.Site}},
		{"mbedtls, restored", restored, held},
	}
	for _, c := range cases {
		recs, state := fmt.Sprintf("%+v", c.r.Invariants()), stateOf(c.r.a)
		if got, err := c.r.Restore(c.rec); err == nil {
			t.Errorf("%s: Restore(%+v) = %d records, want an error", c.name, c.rec, len(got.Invariants()))
		}
		if got := fmt.Sprintf("%+v", c.r.Invariants()); got != recs {
			t.Errorf("%s: the rejected restore changed the receiver's records:\n%s", c.name, diffLines(recs, got))
		}
		if got := stateOf(c.r.a); got != state {
			t.Errorf("%s: the rejected restore wrote the receiver's state:\n%s", c.name, diffLines(state, got))
		}
	}
}
