package pointsto

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/workload"
)

// nodeTableCaps returns the capacity of every per-node table and of the
// record slab.
func nodeTableCaps(a *Analysis) [5]int {
	return [5]int{cap(a.nodes), cap(a.rep), cap(a.state), cap(a.inWL), cap(a.slab)}
}

// TestNodeTablesFit: New sizes the per-node tables and the record slab
// once, from the module's own counts. Neither the build nor the solve,
// which adds parameter and return nodes as indirect calls resolve, grows
// any of them, every node's record sits in the slab, and on
// analyze-30k's program the reserve stays within a quarter of the nodes the
// solved graph holds. The slab's record is 32 bytes: after the solve a node
// has a cold record exactly when it is a representative with a constraint
// other than a copy edge, a merged-away node holds nothing (no copy record
// in particular), and the shared empty cold record is still empty.
func TestNodeTablesFit(t *testing.T) {
	if size := unsafe.Sizeof(nodeState{}); size != 32 {
		t.Errorf("nodeState is %d bytes, want 32", size)
	}
	type unit struct {
		name string
		m    *ir.Module
	}
	var units []unit
	for _, app := range workload.Apps() {
		units = append(units, unit{app.Name, app.MustModule()})
	}
	compile := func(name, src string) {
		m, err := minic.Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		units = append(units, unit{name, m})
	}
	for _, n := range []int{10, 34, 1000} {
		compile(fmt.Sprintf("scaled-1-%d", n), workload.ScaledProgram(1, n))
	}
	for _, seed := range []int64{1, 7, 13} {
		compile(fmt.Sprintf("randprog-%d", seed), workload.RandomProgram(seed))
	}
	for _, u := range units {
		for _, cfg := range []invariant.Config{{}, invariant.All()} {
			a := New(u.m, cfg)
			before := nodeTableCaps(a)
			a.Solve()
			if after := nodeTableCaps(a); after != before {
				t.Errorf("%s %s: node table capacities %v after Solve, %v after New", u.name, cfg.Name(), after, before)
			}
			if len(a.slab) != len(a.nodes) {
				t.Errorf("%s %s: %d of %d node records in the slab", u.name, cfg.Name(), len(a.slab), len(a.nodes))
			}
			if u.name == "scaled-1-1000" && 4*before[0] > 5*len(a.nodes) {
				t.Errorf("%s %s: reserved %d node slots for %d nodes, want at most 1.25x", u.name, cfg.Name(), before[0], len(a.nodes))
			}
			for n, ns := range a.state {
				if a.find(n) != n {
					if ns.out != nil {
						t.Errorf("%s %s: merged-away node %d holds a copy record of %d edges", u.name, cfg.Name(), n, len(ns.out.to))
					}
					if ns.pts != nil || ns.delta != nil || ns.cold != nil {
						t.Errorf("%s %s: merged-away node %d holds %+v", u.name, cfg.Name(), n, *ns)
					}
					continue
				}
				c := ns.cons()
				holds := len(c.gepTo)+len(c.loadTo)+len(c.storeFrom)+len(c.arithTo)+len(c.icalls)+len(c.hcd) > 0
				if (ns.cold != nil) != holds {
					t.Errorf("%s %s: node %d has a cold record %v, holds a cold constraint %v", u.name, cfg.Name(), n, ns.cold != nil, holds)
				}
			}
			if !reflect.ValueOf(noCons).IsZero() {
				t.Fatalf("%s %s: the shared empty cold record was written: %+v", u.name, cfg.Name(), noCons)
			}
		}
	}
}

// solveBytes bounds the bytes one New, Solve and RestoreAll of
// ScaledProgram(1, 100) allocate. It was measured at 1,289,848 when each
// node came to own its copy edges' dedupe set (1,312,344 with one global
// copy-edge table grown by doubling); the runtime's own allocations now and
// then add a few hundred bytes to a run, hence the last kilobyte.
const solveBytes = 1_291_000

// TestSolveBytes pins the solver's bytes the way TestCompileAllocs pins the
// front end's allocations: the optimistic solve of a 100-unit scaled
// program and its derived fallback must not allocate more than measured,
// so a table that grows by doubling cannot come back unnoticed. The figure
// is the least TotalAlloc delta of three runs, since the runtime's own
// allocations now and then add to one. The race detector's build allocates
// more, so it skips.
func TestSolveBytes(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's build allocates more than the bound measures")
	}
	m, err := minic.Compile("scaled", scaledSrc)
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		r := New(m, invariant.All()).Solve()
		if _, err := r.RestoreAll(context.Background(), Budget{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > solveBytes {
		t.Errorf("New+Solve+RestoreAll of ScaledProgram(1, 100): %d bytes, want at most %d", least, solveBytes)
	}
}
