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
// solve.
package core

import (
	"context"
	"fmt"

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
// analysis. The fallback is configuration-independent: callers analyzing
// one module under several configurations solve it once and pass it in.
type AnalyzeOpts struct {
	Fallback *pointsto.Result    // precomputed stage-① result; nil derives it
	Metrics  *telemetry.Registry // telemetry sink (may be nil)
	Budget   pointsto.Budget     // per-stage solver step budget (zero = unlimited)
	Faults   *faultinject.Plan   // fault-injection plan armed on both solver stages
}

// AnalyzeCtx is the cancellable, bounded, fault-injectable analysis entry.
// With invariants to assume it solves once: the optimistic stage solves the
// module under cfg, then the fallback stage restores every invariant on a
// copy of that result (pointsto.Result.RestoreAll) — unless o.Fallback is
// given. The derived fallback equals a fresh standard solve in every answer,
// but its Stats() are cumulative: the optimistic solve plus the restores.
// A configuration without invariants runs one fresh solve, the fallback
// stage, and the optimistic view aliases it. Each stage runs under the
// context and budget; an aborted stage surfaces as a wrapped
// pointsto.AbortError (errors.Is ErrSolveAborted) and the System is not
// produced — a degraded analysis is an explicit error, never a partial
// result.
func AnalyzeCtx(ctx context.Context, m *ir.Module, cfg invariant.Config, o AnalyzeOpts) (*System, error) {
	metrics := o.Metrics
	s := &System{Module: m, Config: cfg, Metrics: metrics}
	// The root span follows the context: inside a traced request (a serve
	// submission carrying a telemetry.Trace) it attaches there, and every
	// stage/solver span below inherits that destination through its parent
	// handle; otherwise it lands in the registry as before.
	ctx, span, finish := telemetry.StartSpanCtx(ctx, metrics, "core/analyze")
	defer finish()
	// stage runs one IGO stage under its own span and timer (both named
	// core/stage/<name>); run nests the solver's phase spans beneath sp.
	stage := func(name string, run func(sp *telemetry.Span) (*pointsto.Result, error)) (*pointsto.Result, error) {
		sp, fin := metrics.StartSpan("core/stage/"+name, span)
		defer fin()
		defer metrics.Timer("core/stage/" + name).Start()()
		r, err := run(sp)
		if err != nil {
			return nil, fmt.Errorf("%s stage: %w", name, err)
		}
		return r, nil
	}
	solve := func(sp *telemetry.Span) (*pointsto.Result, error) {
		a := pointsto.New(m, cfg)
		a.SetMetrics(metrics)
		a.SetSpan(sp)
		a.SetFaults(o.Faults)
		return a.SolveCtx(ctx, o.Budget)
	}
	var err error
	s.Fallback = o.Fallback
	if !cfg.Any() {
		if s.Fallback == nil {
			if s.Fallback, err = stage("fallback", solve); err != nil {
				return nil, err
			}
		}
		s.Optimistic = s.Fallback
	} else {
		if s.Optimistic, err = stage("optimistic", solve); err != nil {
			return nil, err
		}
		if s.Fallback == nil {
			derive := func(sp *telemetry.Span) (*pointsto.Result, error) {
				return s.Optimistic.RestoreAll(telemetry.WithSpan(ctx, sp), o.Budget)
			}
			if s.Fallback, err = stage("fallback", derive); err != nil {
				return nil, err
			}
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
// needed to construct monitored executions.
type Hardened struct {
	Sys        *System
	Optimistic *cfi.Policy
	Fallback   *cfi.Policy
}

// Harden derives the CFI policies for both views (stage ③ preparation).
func (s *System) Harden() *Hardened {
	_, finish := s.Metrics.StartSpan("core/instrument", nil)
	defer finish()
	stop := s.Metrics.Timer("core/instrument").Start()
	defer stop()
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
	Instr    *interp.Instrumentation
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
	sw, secret := memview.NewSwitcher(
		h.Optimistic.View("optimistic"),
		h.Fallback.View("fallback"),
	)
	rt, ins, err := memview.BuildRuntime(h.Sys.Optimistic, memview.RuntimeOpts{
		Switcher: sw,
		Secret:   secret,
		Faults:   faults,
	})
	if err != nil {
		return nil, err
	}
	mc := interp.New(h.Sys.Module, interp.Config{
		Hooks:         rt,
		Instr:         ins,
		TrackPointsTo: track,
		Metrics:       h.Sys.Metrics,
	})
	return &Execution{Machine: mc, Runtime: rt, Switcher: sw, Instr: ins}, nil
}

// MonitorSites returns the number of distinct instrumented monitor sites in
// a hardened execution (the "Total" column of Tables 4 and 5).
func (h *Hardened) MonitorSites() int {
	return h.NewExecution(false).Instr.NumMonitorSites()
}

// Run executes the entry function under monitoring.
func (e *Execution) Run(entry string, inputs []int64) *interp.Trace {
	return e.Machine.Run(entry, inputs)
}

// SoundnessReport compares a dynamic trace against a points-to result and
// returns a description of every dynamic points-to fact absent from the
// static result (empty = the result soundly over-approximates the run).
func SoundnessReport(r *pointsto.Result, tr *interp.Trace) []string {
	var bad []string
	lookup := func(key interp.AbsKey) *pointsto.Object {
		switch key.Kind {
		case interp.AbsGlobal:
			return r.ObjectByGlobal(key.Name)
		case interp.AbsFunc:
			return r.ObjectByFunc(key.Name)
		default:
			return r.ObjectBySite(key.Site)
		}
	}
	for pt, targets := range tr.RegPoints {
		static := map[int]bool{}
		for _, ref := range r.PointsTo(pt.Fn, pt.Reg) {
			static[ref.Obj.Index] = true
		}
		for key := range targets {
			obj := lookup(key)
			if obj == nil || !static[obj.Index] {
				bad = append(bad, fmt.Sprintf("register %s:%s dynamically points to %s, statically absent", pt.Fn, pt.Reg, key))
			}
		}
	}
	for pt, targets := range tr.SlotPoints {
		container := lookup(pt.Obj)
		if container == nil {
			bad = append(bad, fmt.Sprintf("no abstract object for runtime container %s", pt.Obj))
			continue
		}
		static := map[int]bool{}
		for _, ref := range r.SlotPointsTo(container, pt.Slot) {
			static[ref.Obj.Index] = true
		}
		for key := range targets {
			obj := lookup(key)
			if obj == nil || !static[obj.Index] {
				bad = append(bad, fmt.Sprintf("slot %s+%d dynamically points to %s, statically absent", pt.Obj, pt.Slot, key))
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
