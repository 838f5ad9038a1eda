package pointsto

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/workload"
)

// Differential solver oracle: the delta-propagation solver must be
// bit-identical to a full-propagation solve, with and without offline
// preprocessing, under every invariant configuration of Ablations() and
// every incremental re-solve (Restore of each assumed invariant).
// "Bit-identical" means the complete observable Result — every top-level
// points-to set, every object-slot content, field-sensitivity flags, CFI
// target sets, and the recorded invariants with their PWC cycle groups —
// renders to the same fingerprint.

// fingerprint serializes everything observable about a Result into a stable
// string. Two results with equal fingerprints are indistinguishable to any
// client of the package.
func fingerprint(r *Result) string {
	var b strings.Builder
	// Render each representative's set once: pointers and slots that share
	// a representative share its set, and large programs have far fewer
	// representatives than nodes.
	names := map[ObjRef]string{}
	sets := map[int]string{}
	render := func(node int) string {
		rep := r.a.findRead(node)
		if set, ok := sets[rep]; ok {
			return set
		}
		var sb strings.Builder
		for _, ref := range r.canonicalRefs(rep) {
			name, ok := names[ref]
			if !ok {
				name = ref.String()
				names[ref] = name
			}
			sb.WriteByte(' ')
			sb.WriteString(name)
		}
		sets[rep] = sb.String()
		return sets[rep]
	}
	// Every top-level pointer with a non-empty set, as TopLevelPointers
	// lists them, return nodes included.
	for _, p := range r.PointerReps() {
		if set := render(p.Rep); set != "" {
			fmt.Fprintf(&b, "ptr %s:%s =%s\n", p.Fn, p.Reg, set)
		}
	}
	for _, o := range r.Objects() {
		fmt.Fprintf(&b, "obj %s size=%d insens=%v\n", o.Label(), o.Size, o.Insens)
		for s := 0; s < o.Size; s++ {
			node := o.NodeBase + s
			if o.Insens {
				node = o.NodeBase // SlotPointsTo's collapse onto slot 0
			}
			if set := render(node); set != "" {
				fmt.Fprintf(&b, "  slot %d =%s\n", s, set)
			}
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

// solveVariant runs one point of the {delta on/off} x {prep on/off} cube
// over a module and returns the Result. It overrides the choices New makes
// (prep on, delta by DeltaAutoThreshold) through the unexported fields; the
// delta-off, prep-off corner is the oracle's reference.
func solveVariant(m *ir.Module, cfg invariant.Config, delta, prep bool) *Result {
	a := New(m, cfg)
	a.noDelta = !delta
	a.prep = prep
	return a.Solve()
}

// scaledSrc is ScaledProgram(1, 100): ~3k constraint nodes, so a plain New
// runs it with delta propagation on (above DeltaAutoThreshold), on a
// prep-merged graph — the path production takes on large programs.
var scaledSrc = workload.ScaledProgram(1, 100)

// oracleModules collects every corpus the oracle runs on: the nine synthetic
// workload apps, the in-package paper-figure fixtures, the incremental
// re-analysis demo (a live PA violation plus Ctx-assumed hooks), one scaled
// program above DeltaAutoThreshold, and randprog-1k.
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
		"incrementalDemo": workload.IncrementalDemoSrc,
	} {
		m, err := minic.Compile(name, src)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		mods["fig/"+name] = m
	}
	m, err := minic.Compile("scaled", scaledSrc)
	if err != nil {
		t.Fatalf("compile scaled: %v", err)
	}
	mods["scaled/1x100"] = m
	mods["scaled/randprog-1k"] = workload.ScaledApps()[0].MustModule()
	return mods
}

// restoreModules is oracleModules plus randprog-10k, whose full-propagation
// reference is too slow for the delta and incremental oracles (about 2 s per
// configuration) but whose restores are cheap. -short leaves it out.
func restoreModules(t *testing.T) map[string]*ir.Module {
	t.Helper()
	mods := oracleModules(t)
	if !testing.Short() {
		mods["scaled/randprog-10k"] = workload.ScaledApps()[1].MustModule()
	}
	return mods
}

// oracleConfigs names every invariant configuration of Ablations() for the
// oracle's subtests.
var oracleConfigs = map[invariant.Config]string{
	{}:                     "fallback",
	{Ctx: true}:            "ctx-only",
	{PA: true}:             "pa-only",
	{PWC: true}:            "pwc-only",
	{Ctx: true, PA: true}:  "ctx-pa",
	{Ctx: true, PWC: true}: "ctx-pwc",
	{PA: true, PWC: true}:  "pa-pwc",
	invariant.All():        "optimistic",
}

// TestDifferentialDeltaOracle asserts that no solver optimization changes
// anything observable: for every module and invariant configuration, every
// point of the {delta on/off} x {prep on/off} cube fingerprints identically
// to the full-propagation, no-prep solve.
func TestDifferentialDeltaOracle(t *testing.T) {
	for name, m := range oracleModules(t) {
		for _, cfg := range invariant.Ablations() {
			t.Run(name+"/"+oracleConfigs[cfg], func(t *testing.T) {
				ref := fingerprint(solveVariant(m, cfg, false, false))
				for _, delta := range []bool{false, true} {
					for _, prep := range []bool{false, true} {
						if !delta && !prep {
							continue // the reference itself
						}
						got := fingerprint(solveVariant(m, cfg, delta, prep))
						if got != ref {
							t.Errorf("delta=%v prep=%v diverges from full+no-prep reference:\n%s",
								delta, prep, diffLines(ref, got))
						}
					}
				}
			})
		}
	}
}

// TestDifferentialIncrementalOracle asserts that, under every invariant
// configuration, an incremental re-solve (Restore of each assumed
// invariant, one at a time, until none is left) under delta propagation
// matches the same sequence under full propagation, after every individual
// step — and that once every invariant is restored, the result equals a
// fresh fallback (empty-configuration) solve.
func TestDifferentialIncrementalOracle(t *testing.T) {
	for name, m := range oracleModules(t) {
		t.Run(name, func(t *testing.T) {
			fallback := fingerprint(New(m, invariant.Config{}).Solve())
			for _, cfg := range invariant.Ablations() {
				label := oracleConfigs[cfg]
				// The reference runs full propagation without preprocessing;
				// the candidate enables both delta and prep, so the restore
				// sequence exercises re-solving on a prep-merged graph.
				full := solveVariant(m, cfg, false, false)
				delta := solveVariant(m, cfg, true, true)
				if got, want := fingerprint(delta), fingerprint(full); got != want {
					t.Fatalf("%s: pre-restore divergence:\n%s", label, diffLines(want, got))
				}
				// Restore records by stable identity, not index: both solves
				// assume the same invariants (asserted after every step), so
				// drive both from the full solve's record list. A restore may
				// surface a new PWC record, so the loop runs until the list
				// is empty.
				for i := 0; ; i++ {
					recs := full.Invariants()
					if len(recs) == 0 {
						break
					}
					rec := recs[0]
					if err := full.Restore(rec); err != nil {
						t.Fatalf("%s: full restore %d (%+v): %v", label, i, rec, err)
					}
					if err := delta.Restore(rec); err != nil {
						t.Fatalf("%s: delta restore %d (%+v): %v", label, i, rec, err)
					}
					if got, want := fingerprint(delta), fingerprint(full); got != want {
						t.Fatalf("%s: divergence after restore %d (kind=%v site=%d):\n%s",
							label, i, rec.Kind, rec.Site, diffLines(want, got))
					}
				}
				if got := fingerprint(full); got != fallback {
					t.Errorf("%s: restoring every invariant differs from a fresh fallback solve:\n%s",
						label, diffLines(fallback, got))
				}
			}
		})
	}
}

// TestRestoreAllMatchesFallback asserts the one-solve derivation of the
// fallback view: RestoreAll on an optimistic result equals a fresh fallback
// solve under every configuration, and leaves its receiver unchanged.
func TestRestoreAllMatchesFallback(t *testing.T) {
	for name, m := range restoreModules(t) {
		t.Run(name, func(t *testing.T) {
			fallback := fingerprint(New(m, invariant.Config{}).Solve())
			for _, cfg := range invariant.Ablations() {
				opt := New(m, cfg).Solve()
				before := fingerprint(opt)
				derived, err := opt.RestoreAll(context.Background(), Budget{})
				if err != nil {
					t.Fatalf("%s: %v", oracleConfigs[cfg], err)
				}
				if got := fingerprint(derived); got != fallback {
					t.Errorf("%s: derived fallback differs from a fresh one:\n%s",
						oracleConfigs[cfg], diffLines(fallback, got))
				}
				if derived.Config() != (invariant.Config{}) {
					t.Errorf("%s: derived config %+v, want the empty one", oracleConfigs[cfg], derived.Config())
				}
				if got := fingerprint(opt); got != before {
					t.Errorf("%s: RestoreAll changed its receiver:\n%s",
						oracleConfigs[cfg], diffLines(before, got))
				}
			}
		})
	}
}

// TestRestoreToConfigMatchesFreshSolve checks the evidence a per-config
// derivation would rest on: solving under every invariant and restoring
// only the kinds configuration c lacks equals a fresh solve of c.
func TestRestoreToConfigMatchesFreshSolve(t *testing.T) {
	for name, m := range restoreModules(t) {
		t.Run(name, func(t *testing.T) {
			all := New(m, invariant.All()).Solve()
			for _, cfg := range invariant.Ablations() {
				want := fingerprint(New(m, cfg).Solve())
				r, err := all.restoreTo(context.Background(), Budget{}, cfg)
				if err != nil {
					t.Fatalf("%s: %v", oracleConfigs[cfg], err)
				}
				if got := fingerprint(r); got != want {
					t.Errorf("%s: restored from %s differs from a fresh solve:\n%s",
						oracleConfigs[cfg], oracleConfigs[invariant.All()], diffLines(want, got))
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
