package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/pointsto"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// render serializes the answers of a result: every pointer's and object
// slot's points-to set, field sensitivity, call targets, and invariants.
func render(r *pointsto.Result) string {
	var b strings.Builder
	for _, p := range r.PointerReps() {
		refs := r.PointsTo(p.Fn, p.Reg)
		if p.Reg == "" {
			refs = r.ReturnPointsTo(p.Fn)
		}
		fmt.Fprintf(&b, "%s:%s %v\n", p.Fn, p.Reg, refs)
	}
	for _, o := range r.Objects() {
		fmt.Fprintf(&b, "%s insens=%v", o.Label(), o.Insens)
		for s := 0; s < o.Size; s++ {
			fmt.Fprintf(&b, " %v", r.SlotPointsTo(o, s))
		}
		b.WriteByte('\n')
	}
	for _, site := range r.ICallSites() {
		fmt.Fprintf(&b, "icall %d %v\n", site, r.CallTargets(site))
	}
	for _, rec := range r.Invariants() {
		fmt.Fprintf(&b, "inv %v %d %v %v\n", rec.Kind, rec.Site, rec.FilteredObjs, rec.CycleFieldSites)
	}
	return b.String()
}

// spansNamed returns the recorded spans with the given name.
func spansNamed(snap telemetry.Snapshot, name string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, sp := range snap.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// With invariants to assume, AnalyzeCtx builds and solves one constraint
// graph: the optimistic stage, then the fallback stage deriving the
// fallback from it. Without invariants it runs one fresh fallback solve.
func TestAnalyzeSolvesOnce(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	for _, cfg := range []invariant.Config{invariant.All(), {}} {
		reg := telemetry.New()
		s, err := AnalyzeCtx(context.Background(), m, cfg, AnalyzeOpts{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		for _, name := range []string{"pointsto/build", "pointsto/prep", "core/stage/fallback"} {
			if got := len(spansNamed(snap, name)); got != 1 {
				t.Errorf("%s: %d %s spans, want 1", cfg.Name(), got, name)
			}
		}
		opt := spansNamed(snap, "core/stage/optimistic")
		if !cfg.Any() {
			if len(opt) != 0 || s.Optimistic != s.Fallback {
				t.Errorf("Baseline: %d optimistic stages, aliased=%v; want none, aliased", len(opt), s.Optimistic == s.Fallback)
			}
			continue
		}
		if len(opt) != 1 {
			t.Fatalf("%d optimistic stage spans, want 1", len(opt))
		}
		fb := spansNamed(snap, "core/stage/fallback")[0]
		if fb.Start < opt[0].Start+opt[0].Dur {
			t.Errorf("fallback stage starts at %v, before the optimistic stage ends at %v", fb.Start, opt[0].Start+opt[0].Dur)
		}
		// The derivation's re-solve nests under the fallback stage.
		nested := false
		for _, sp := range spansNamed(snap, "pointsto/solve") {
			nested = nested || sp.Parent == fb.ID
		}
		if !nested {
			t.Error("no pointsto/solve span under core/stage/fallback")
		}
		if got, want := render(s.Fallback), render(pointsto.New(m, invariant.Config{}).Solve()); got != want {
			t.Error("derived fallback differs from a fresh fallback solve")
		}
		// Stats are cumulative: the optimistic solve plus the restores.
		if fo, oo := s.Fallback.Stats().Iterations, s.Optimistic.Stats().Iterations; fo <= oo {
			t.Errorf("derived fallback reports %d pops, the optimistic solve alone %d", fo, oo)
		}
	}
}

// optimisticSteps returns the solver steps the optimistic stage of m under
// cfg takes: the smallest step budget it completes within.
func optimisticSteps(t *testing.T, m *ir.Module, cfg invariant.Config) int64 {
	t.Helper()
	fits := func(n int64) bool {
		_, err := pointsto.New(m, cfg).SolveCtx(context.Background(), pointsto.Budget{MaxSteps: n})
		return err == nil
	}
	hi := int64(1)
	for !fits(hi) {
		hi *= 2
	}
	lo := hi / 2 // does not fit (or is 0)
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; fits(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// wantStageAbort asserts err is a solver abort of the named stage.
func wantStageAbort(t *testing.T, err error, stage string) {
	t.Helper()
	if err == nil {
		t.Fatalf("analysis succeeded, want a %s stage abort", stage)
	}
	if !errors.Is(err, pointsto.ErrSolveAborted) || !strings.HasPrefix(err.Error(), stage+" stage: ") {
		t.Fatalf("err = %v, want %q wrapping ErrSolveAborted", err, stage+" stage: …")
	}
}

// The budget is per stage: one that admits the optimistic solve but not the
// derivation's re-solve aborts the fallback stage. On mbedtls the
// derivation re-solves more than the optimistic stage solves.
func TestFallbackStageBudget(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	cfg := invariant.All()
	k := optimisticSteps(t, m, cfg)
	_, err := AnalyzeCtx(context.Background(), m, cfg, AnalyzeOpts{Budget: pointsto.Budget{MaxSteps: k}})
	wantStageAbort(t, err, "fallback")
	_, err = AnalyzeCtx(context.Background(), m, cfg, AnalyzeOpts{Budget: pointsto.Budget{MaxSteps: k - 1}})
	wantStageAbort(t, err, "optimistic")
}

// The SolverBudget fault site fires inside the derivation too: a fault on
// the first step after the optimistic stage's last aborts the fallback stage.
func TestFallbackStageFault(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	cfg := invariant.All()
	k := optimisticSteps(t, m, cfg)
	for hit, stage := range map[int64]string{k: "optimistic", k + 1: "fallback"} {
		plan := faultinject.ExplicitAt(faultinject.SolverBudget, hit)
		_, err := AnalyzeCtx(context.Background(), m, cfg, AnalyzeOpts{Faults: plan})
		wantStageAbort(t, err, stage)
		var inj *faultinject.Injected
		if !errors.As(err, &inj) || inj.Site != faultinject.SolverBudget {
			t.Errorf("hit %d: err = %v, want the injected %s cause", hit, err, faultinject.SolverBudget)
		}
	}
}

// cancelAt is a context cancelled at its n-th observation: every Done or
// Err call observes it once, and from the n-th on it is done. Solving is
// deterministic, so counting a stage's observations pins the cancellation
// to a point between two stages.
type cancelAt struct {
	context.Context
	n, seen int
	done    chan struct{}
}

func newCancelAt(n int) *cancelAt {
	return &cancelAt{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *cancelAt) observe() {
	if c.seen++; c.seen == c.n {
		close(c.done)
	}
}

func (c *cancelAt) Done() <-chan struct{} {
	c.observe()
	return c.done
}

func (c *cancelAt) Err() error {
	c.observe()
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// A context cancelled after the optimistic stage aborts the fallback stage.
func TestFallbackStageCancelled(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	cfg := invariant.All()
	count := newCancelAt(0)
	if _, err := pointsto.New(m, cfg).SolveCtx(count, pointsto.Budget{}); err != nil {
		t.Fatal(err)
	}
	_, err := AnalyzeCtx(newCancelAt(count.seen+1), m, cfg, AnalyzeOpts{})
	wantStageAbort(t, err, "fallback")
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled cause", err)
	}
}

// The two views of one analysis are independent: deriving the fallback
// leaves the optimistic result as a fresh solve has it, and restoring the
// optimistic result afterwards leaves the fallback unchanged.
func TestDerivedViewsIndependent(t *testing.T) {
	m := workload.MbedTLS().MustModule()
	cfg := invariant.All()
	s := Analyze(m, cfg)
	if got, want := render(s.Optimistic), render(pointsto.New(m, cfg).Solve()); got != want {
		t.Fatal("deriving the fallback changed the optimistic result")
	}
	fallback := render(s.Fallback)
	if len(s.Invariants()) < 2 {
		t.Fatalf("mbedtls assumes %d invariants, want several", len(s.Invariants()))
	}
	for recs := s.Invariants(); len(recs) > 0; recs = s.Invariants() {
		if err := s.Optimistic.Restore(recs[0]); err != nil {
			t.Fatal(err)
		}
		if render(s.Fallback) != fallback {
			t.Fatalf("restoring %v on the optimistic result changed the fallback", recs[0].Kind)
		}
	}
	if render(s.Optimistic) != fallback {
		t.Error("restoring every invariant in place differs from the derived fallback")
	}
}
