package pointsto

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/workload"
)

// Differential solver oracle: the delta-propagation solver must be
// bit-identical to a full-propagation solve under every combination of
// iteration strategy (worklist, wave), invariant configuration (fallback,
// optimistic), and incremental re-solve (Restore of each assumed invariant).
// "Bit-identical" means the complete observable Result — every top-level
// points-to set, every object-slot content, field-sensitivity flags, CFI
// target sets, and the recorded invariants with their PWC cycle groups —
// renders to the same fingerprint.

// fingerprint serializes everything observable about a Result into a stable
// string. Two results with equal fingerprints are indistinguishable to any
// client of the package.
func fingerprint(r *Result) string {
	var b strings.Builder
	for _, p := range r.TopLevelPointers() {
		fmt.Fprintf(&b, "ptr %s:%s =", p.Fn, p.Reg)
		var refs []ObjRef
		if p.Reg == "" {
			// Return nodes are not directly addressable via PointsTo; SizeOf
			// covers the cardinality and the object-slot section below covers
			// the contents reachable from them.
			fmt.Fprintf(&b, " #%d\n", r.SizeOf(p))
			continue
		}
		refs = r.PointsTo(p.Fn, p.Reg)
		for _, ref := range refs {
			fmt.Fprintf(&b, " %s", ref)
		}
		b.WriteByte('\n')
	}
	for _, o := range r.Objects() {
		fmt.Fprintf(&b, "obj %s size=%d insens=%v\n", o.Label(), o.Size, o.Insens)
		for s := 0; s < o.Size; s++ {
			refs := r.SlotPointsTo(o, s)
			if len(refs) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  slot %d =", s)
			for _, ref := range refs {
				fmt.Fprintf(&b, " %s", ref)
			}
			b.WriteByte('\n')
		}
	}
	for _, site := range r.ICallSites() {
		fmt.Fprintf(&b, "icall %d = %v\n", site, r.CallTargets(site))
	}
	for _, rec := range r.Invariants() {
		fmt.Fprintf(&b, "inv kind=%v site=%d filtered=%v pwc=%v callsites=%v\n",
			rec.Kind, rec.Site, rec.FilteredObjs, rec.CycleFieldSites, rec.Callsites)
	}
	fmt.Fprintf(&b, "monitors=%d\n", len(r.Monitors()))
	return b.String()
}

// solveVariant runs one configuration of the solver over a module and
// returns the Result.
func solveVariant(m *ir.Module, cfg invariant.Config, wave, delta, prep bool) *Result {
	a := New(m, cfg)
	a.SetWave(wave)
	a.SetDelta(delta)
	a.SetPrep(prep)
	return a.Solve()
}

// oracleModules collects every corpus the oracle runs on: the nine synthetic
// workload apps plus the in-package paper-figure fixtures.
func oracleModules(t *testing.T) map[string]*ir.Module {
	t.Helper()
	mods := map[string]*ir.Module{}
	for _, app := range workload.Apps() {
		mods["app/"+app.Name] = app.MustModule()
	}
	for name, src := range map[string]string{
		"figure2": figure2, "figure6": figure6, "figure7": figure7,
		"figure8": figure8, "ctxRet": ctxRetSrc, "icall": icallSrc,
		"heapWrapper": heapWrapperSrc, "cycle": cycleSrc,
	} {
		m, err := minic.Compile(name, src)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		mods["fig/"+name] = m
	}
	return mods
}

// TestDifferentialDeltaOracle asserts that no solver optimization changes
// anything observable: for every module and invariant configuration, every
// point of the {worklist, wave} x {delta on/off} x {prep on/off} strategy
// cube fingerprints identically to the plain worklist+full+no-prep solve.
func TestDifferentialDeltaOracle(t *testing.T) {
	cfgs := map[string]invariant.Config{
		"fallback":   {},
		"optimistic": invariant.All(),
		"pa-only":    {PA: true},
		"pwc-only":   {PWC: true},
	}
	for name, m := range oracleModules(t) {
		for cfgName, cfg := range cfgs {
			t.Run(name+"/"+cfgName, func(t *testing.T) {
				ref := fingerprint(solveVariant(m, cfg, false, false, false))
				for _, wave := range []bool{false, true} {
					for _, delta := range []bool{false, true} {
						for _, prep := range []bool{false, true} {
							if !wave && !delta && !prep {
								continue // the reference itself
							}
							label := fmt.Sprintf("wave=%v delta=%v prep=%v", wave, delta, prep)
							got := fingerprint(solveVariant(m, cfg, wave, delta, prep))
							if got != ref {
								t.Errorf("%s diverges from worklist+full+no-prep reference:\n%s",
									label, diffLines(ref, got))
							}
						}
					}
				}
			})
		}
	}
}

// TestDifferentialIncrementalOracle asserts that an incremental re-solve
// (Restore of each assumed invariant, one at a time, in order) under delta
// propagation matches the same sequence under full propagation, after every
// individual step.
func TestDifferentialIncrementalOracle(t *testing.T) {
	for name, m := range oracleModules(t) {
		t.Run(name, func(t *testing.T) {
			for _, wave := range []bool{false, true} {
				// The reference runs full propagation without preprocessing;
				// the candidate enables both delta and prep, so the restore
				// sequence exercises re-solving on a prep-merged graph.
				full := solveVariant(m, invariant.All(), wave, false, false)
				delta := solveVariant(m, invariant.All(), wave, true, true)
				if got, want := fingerprint(delta), fingerprint(full); got != want {
					t.Fatalf("wave=%v: pre-restore divergence:\n%s", wave, diffLines(want, got))
				}
				// Restore records by stable identity, not index: both solves
				// assumed the same invariants (asserted above), so drive both
				// from the full solve's record list.
				recs := full.Invariants()
				for i, rec := range recs {
					if err := full.Restore(rec); err != nil {
						t.Fatalf("wave=%v: full restore %d (%+v): %v", wave, i, rec, err)
					}
					if err := delta.Restore(rec); err != nil {
						t.Fatalf("wave=%v: delta restore %d (%+v): %v", wave, i, rec, err)
					}
					if got, want := fingerprint(delta), fingerprint(full); got != want {
						t.Errorf("wave=%v: divergence after restore %d (kind=%v site=%d):\n%s",
							wave, i, rec.Kind, rec.Site, diffLines(want, got))
					}
				}
			}
		})
	}
}

// diffLines renders the first few differing lines between two fingerprints,
// keeping failure output readable on large modules.
func diffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw == lg {
			continue
		}
		fmt.Fprintf(&b, "  line %d:\n    want: %s\n    got:  %s\n", i+1, lw, lg)
		if shown++; shown >= 8 {
			b.WriteString("  ...\n")
			break
		}
	}
	if b.Len() == 0 {
		return "  (fingerprints differ only in length)"
	}
	return b.String()
}
