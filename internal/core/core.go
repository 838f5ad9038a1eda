// Package core is the Kaleidoscope IGO (invariant-guided optimistic) pointer
// analysis engine — the paper's primary contribution. It orchestrates the
// three stages of Figure 4:
//
//  1. the standard pointer analysis → the fallback memory view;
//  2. the analysis assuming the selected likely invariants → the
//     optimistic memory view;
//  3. derive runtime monitors and the secure memory-view switcher so a
//     hardened execution starts optimistic and degrades soundly on
//     invariant violation.
//
// Stages 1 and 2 cost one solve: AnalyzeCtx solves the optimistic view and
// derives the fallback from a copy of it with every invariant restored
// (pointsto.Result.RestoreAll, paper §8), which equals a fresh standard
// solve. Every analysis derives its own fallback this way; none is shared
// between configurations.
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cfi"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/memview"
	"repro/internal/minic"
	"repro/internal/pointsto"
	"repro/internal/telemetry"
)

// System is the result of the IGO analysis on one module: the two points-to
// collections plus the invariant/monitor inventory carried by the optimistic
// one.
type System struct {
	Module     *ir.Module
	Config     invariant.Config
	Fallback   *pointsto.Result // stage ① — sound, imprecise
	Optimistic *pointsto.Result // stage ② — precise while the invariants hold
	// Metrics, when non-nil, receives solver and interpreter telemetry from
	// this system and every execution derived from it.
	Metrics *telemetry.Registry
}

// Analyze runs the IGO pointer analysis with the given likely-invariant
// configuration. With no invariants enabled the optimistic result aliases
// the fallback.
func Analyze(m *ir.Module, cfg invariant.Config) *System {
	s, err := AnalyzeCtx(context.Background(), m, cfg, AnalyzeOpts{})
	if err != nil {
		// Unreachable: without a cancellable context, a budget, or a fault
		// plan, SolveCtx cannot abort.
		panic(err)
	}
	return s
}

// AnalyzeOpts configures AnalyzeCtx. The zero value is a plain unbounded
// analysis.
type AnalyzeOpts struct {
	Metrics *telemetry.Registry // telemetry sink (may be nil)
	Budget  pointsto.Budget     // per-stage solver step budget (zero = unlimited)
	Faults  *faultinject.Plan   // fault-injection plan armed on both solver stages
}

// AnalyzeCtx is the cancellable, bounded, fault-injectable analysis entry,
// and the only way an analysis gets its fallback. With invariants to assume
// it solves once: the optimistic stage solves the module under cfg, then
// the fallback stage restores every invariant on a copy of that result
// (pointsto.Result.RestoreAll). The derived fallback equals a fresh
// standard solve in every answer, but its Stats() are cumulative: the
// optimistic solve plus the restores. A configuration without invariants
// runs one fresh solve, the fallback stage, and the optimistic view
// aliases it. Each stage runs under the context and budget; an aborted
// stage surfaces as a wrapped pointsto.AbortError (errors.Is
// ErrSolveAborted) and the System is not produced — a degraded analysis is
// an explicit error, never a partial result.
func AnalyzeCtx(ctx context.Context, m *ir.Module, cfg invariant.Config, o AnalyzeOpts) (*System, error) {
	metrics := o.Metrics
	s := &System{Module: m, Config: cfg, Metrics: metrics}
	// The root span follows the context: inside a traced request (a serve
	// submission carrying a telemetry.Trace) it attaches there, and every
	// stage/solver span below inherits that destination and its parent
	// through the context; otherwise it lands in the registry.
	ctx, _, finish := telemetry.StartSpanCtx(ctx, metrics, "core/analyze")
	defer finish()
	// stage runs one IGO stage under its own span, core/stage/<name>; run
	// gets a context carrying that span, so the solver's phase spans nest
	// beneath it.
	stage := func(name string, run func(ctx context.Context) (*pointsto.Result, error)) (*pointsto.Result, error) {
		ctx, _, fin := telemetry.StartSpanCtx(ctx, metrics, "core/stage/"+name)
		defer fin()
		r, err := run(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s stage: %w", name, err)
		}
		return r, nil
	}
	solve := func(ctx context.Context) (*pointsto.Result, error) {
		a := pointsto.New(m, cfg)
		a.SetMetrics(metrics)
		a.SetFaults(o.Faults)
		return a.SolveCtx(ctx, o.Budget)
	}
	var err error
	if !cfg.Any() {
		if s.Fallback, err = stage("fallback", solve); err != nil {
			return nil, err
		}
		s.Optimistic = s.Fallback
	} else {
		if s.Optimistic, err = stage("optimistic", solve); err != nil {
			return nil, err
		}
		derive := func(ctx context.Context) (*pointsto.Result, error) {
			return s.Optimistic.RestoreAll(ctx, o.Budget)
		}
		if s.Fallback, err = stage("fallback", derive); err != nil {
			return nil, err
		}
	}
	metrics.Counter("core/analyses").Inc()
	return s, nil
}

// AnalyzeSource compiles MiniC source and runs Analyze.
func AnalyzeSource(name, src string, cfg invariant.Config) (*System, error) {
	m, err := minic.Compile(name, src)
	if err != nil {
		return nil, err
	}
	return Analyze(m, cfg), nil
}

// Invariants returns the likely invariants assumed by the optimistic run.
func (s *System) Invariants() []invariant.Record { return s.Optimistic.Invariants() }

// Population returns the measurement population for precision metrics: every
// top-level pointer with a non-empty fallback points-to set. Using the
// fallback population for all configurations keeps Table 3 columns
// comparable.
func (s *System) Population() []pointsto.PtrRef { return s.Fallback.TopLevelPointers() }

// Sizes returns the points-to set sizes of the population under r.
func (s *System) Sizes(r *pointsto.Result) []int {
	pop := s.Population()
	out := make([]int, len(pop))
	for i, p := range pop {
		out[i] = r.SizeOf(p)
	}
	return out
}

// Hardened is a CFI-instrumented program: both policy views plus everything
// needed to construct monitored executions. The policies and the compiled
// program are read-only, so every execution shares them.
type Hardened struct {
	Sys        *System
	Optimistic *cfi.Policy
	Fallback   *cfi.Policy

	// prog is the module compiled under the monitors' instrumentation,
	// built by the first execution: hardening itself compiles nothing, so
	// analyses that never execute never pay for it.
	progOnce sync.Once
	prog     *interp.Program
}

// Harden derives the CFI policies for both views (stage ③ preparation).
func (s *System) Harden() *Hardened {
	_, finish := s.Metrics.StartSpan("core/instrument", nil)
	defer finish()
	return &Hardened{
		Sys:        s,
		Optimistic: cfi.PolicyFrom(s.Optimistic),
		Fallback:   cfi.PolicyFrom(s.Fallback),
	}
}

// Execution is one monitored run context: a fresh switcher (starting on the
// optimistic view), the monitor runtime, and an interpreter wired to both.
type Execution struct {
	Machine  *interp.Machine
	Runtime  *memview.Runtime
	Switcher *memview.Switcher
}

// NewExecution builds a monitored execution. Each execution has its own
// switcher state, so one invariant violation does not leak across runs. It
// panics on a corrupt invariant record (impossible without fault injection);
// error-aware callers use NewExecutionChecked.
func (h *Hardened) NewExecution(track bool) *Execution {
	e, err := h.NewExecutionChecked(track, nil)
	if err != nil {
		panic(err)
	}
	return e
}

// NewExecutionChecked is NewExecution with fault injection and an error
// path: an armed CorruptRecord fault (or a genuinely corrupt record) is
// caught by monitor-record validation and surfaces as a typed
// *memview.CorruptRecordError; the SpuriousViolation site stays armed inside
// the runtime's monitor hooks for the execution's lifetime.
func (h *Hardened) NewExecutionChecked(track bool, faults *faultinject.Plan) (*Execution, error) {
	sw, secret := memview.NewSwitcher(h.Optimistic, h.Fallback)
	rt, err := memview.BuildRuntime(h.Sys.Optimistic, sw.Handler(secret), faults)
	if err != nil {
		return nil, err
	}
	mc := h.program().NewMachine(interp.Config{
		Hooks:         rt,
		TrackPointsTo: track,
		Metrics:       h.Sys.Metrics,
	})
	return &Execution{Machine: mc, Runtime: rt, Switcher: sw}, nil
}

// program returns the compiled program every execution runs, compiling it
// on first use. Its instrumentation is the optimistic result's monitors,
// which is what every execution's runtime installs first.
func (h *Hardened) program() *interp.Program {
	h.progOnce.Do(func() {
		h.prog = interp.Compile(h.Sys.Module, memview.Instrumentation(h.Sys.Optimistic))
	})
	return h.prog
}

// MonitorSites returns the number of distinct instrumented monitor sites in
// a hardened execution (the "Total" column of Tables 4 and 5).
func (h *Hardened) MonitorSites() int {
	return memview.Instrumentation(h.Sys.Optimistic).NumMonitorSites()
}

// Run executes the entry function under monitoring.
func (e *Execution) Run(entry string, inputs []int64) *interp.Trace {
	return e.Machine.Run(entry, inputs)
}

// SoundnessReport compares a dynamic trace against a points-to result and
// returns a description of every dynamic points-to fact absent from the
// static result (empty = the result soundly over-approximates the run).
// The trace names objects by their IR numbers, which index r.Objects().
func SoundnessReport(r *pointsto.Result, tr *interp.Trace) []string {
	var bad []string
	objs := r.Objects()
	label := func(id int) string {
		if id >= 0 && id < len(objs) {
			return objs[id].Label()
		}
		return fmt.Sprintf("object #%d", id)
	}
	for pt, targets := range tr.RegPoints {
		static := map[int]bool{}
		for _, ref := range r.PointsTo(pt.Fn, pt.Reg) {
			static[ref.Obj.Index] = true
		}
		for id := range targets {
			if !static[id] {
				bad = append(bad, fmt.Sprintf("register %s:%s dynamically points to %s, statically absent", pt.Fn, pt.Reg, label(id)))
			}
		}
	}
	for pt, targets := range tr.SlotPoints {
		if pt.Obj < 0 || pt.Obj >= len(objs) {
			bad = append(bad, fmt.Sprintf("no abstract object for runtime container %s", label(pt.Obj)))
			continue
		}
		static := map[int]bool{}
		for _, ref := range r.SlotPointsTo(objs[pt.Obj], pt.Slot) {
			static[ref.Obj.Index] = true
		}
		for id := range targets {
			if !static[id] {
				bad = append(bad, fmt.Sprintf("slot %s+%d dynamically points to %s, statically absent", label(pt.Obj), pt.Slot, label(id)))
			}
		}
	}
	for site, targets := range tr.ICallObserved {
		allowed := map[string]bool{}
		for _, t := range r.CallTargets(site) {
			allowed[t] = true
		}
		for t := range targets {
			if !allowed[t] {
				bad = append(bad, fmt.Sprintf("icall #%d dynamically reached %s, statically absent", site, t))
			}
		}
	}
	return bad
}
