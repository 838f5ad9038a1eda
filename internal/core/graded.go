package core

import (
	"repro/internal/cfi"
	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/memview"
)

// This file implements the finer-grained fallback mechanism sketched in the
// paper's Discussion (§8): instead of one all-or-nothing optimistic→fallback
// switch, the system pre-generates the memory views of every invariant
// configuration and degrades precision one policy at a time. When a PA
// monitor fires, only the PA assumptions are abandoned: the view for the
// remaining {Ctx, PWC} configuration — still far tighter than the fallback —
// is installed, and its own monitors keep running.

// GradedSystem holds the analyses and CFI policies of all eight invariant
// configurations.
type GradedSystem struct {
	Module   *ir.Module
	Systems  map[string]*System     // config name -> analysis
	Policies map[string]*cfi.Policy // config name -> optimistic policy of that config
	// prog is the module compiled under the union of every level's monitor
	// sites, so degraded levels find their monitors already in place. All
	// executions share it.
	prog *interp.Program
}

// AnalyzeGraded takes the analysis of every configuration (the same sweep
// Table 3 performs) from analyze, which must analyze one module, and
// prepares per-level CFI policies and the union instrumentation.
func AnalyzeGraded(analyze func(invariant.Config) *System) *GradedSystem {
	g := &GradedSystem{
		Systems:  map[string]*System{},
		Policies: map[string]*cfi.Policy{},
	}
	union := &interp.Instrumentation{
		PtrAddSites: map[int]bool{},
		FieldSites:  map[int]bool{},
		CtxCallArgs: map[int][]int{},
		CtxChecks:   map[int][]invariant.CtxSample{},
		CheckICalls: true,
	}
	for _, cfg := range invariant.Ablations() {
		s := analyze(cfg)
		g.Module = s.Module
		g.Systems[cfg.Name()] = s
		g.Policies[cfg.Name()] = cfi.PolicyFrom(s.Optimistic)
		ins := memview.Instrumentation(s.Optimistic)
		for site := range ins.PtrAddSites {
			union.PtrAddSites[site] = true
		}
		for site := range ins.FieldSites {
			union.FieldSites[site] = true
		}
		for site, args := range ins.CtxCallArgs {
			union.CtxCallArgs[site] = args
		}
		for site, samples := range ins.CtxChecks {
			union.CtxChecks[site] = samples
		}
	}
	g.prog = interp.Compile(g.Module, union)
	return g
}

// GradedController is the graded memview.Handler: it answers CFI lookups
// from the active level's policy and, per violation, drops the violated
// policy and installs that level's monitors into the execution's runtime.
type GradedController struct {
	g   *GradedSystem
	rt  *memview.Runtime
	cur invariant.Config

	violations []memview.Violation
	// Transitions records the sequence of installed configurations.
	Transitions []string
}

// Active returns the currently installed configuration.
func (c *GradedController) Active() invariant.Config { return c.cur }

// Violations returns all recorded violations.
func (c *GradedController) Violations() []memview.Violation { return c.violations }

// Permits looks the target up in the active level's CFI policy.
func (c *GradedController) Permits(site int, target string) bool {
	return c.g.Policies[c.cur.Name()].Permits(site, target)
}

// OnViolation drops the violated policy from the active configuration and
// installs the corresponding level. Monitor state of the invariants the
// level still assumes survives the transition.
func (c *GradedController) OnViolation(v memview.Violation) {
	c.violations = append(c.violations, v)
	next := c.cur
	switch v.Kind {
	case invariant.PA:
		next.PA = false
	case invariant.PWC:
		next.PWC = false
	case invariant.Ctx:
		next.Ctx = false
	}
	if next == c.cur {
		return // policy already degraded; nothing further to drop
	}
	if err := c.rt.Install(c.g.Systems[next.Name()].Optimistic); err != nil {
		panic(err) // unreachable: the controller arms no fault plan
	}
	c.cur = next
	c.Transitions = append(c.Transitions, next.Name())
}

// GradedExecution is a monitored run with graded fallback.
type GradedExecution struct {
	Machine    *interp.Machine
	Runtime    *memview.Runtime
	Controller *GradedController
}

// NewExecution builds a graded execution starting at full Kaleidoscope,
// instrumented with every level's monitor sites.
func (g *GradedSystem) NewExecution(track bool) *GradedExecution {
	ctrl := &GradedController{g: g, cur: invariant.All()}
	rt, err := memview.BuildRuntime(g.Systems[ctrl.cur.Name()].Optimistic, ctrl, nil)
	if err != nil {
		panic(err) // unreachable: no fault plan
	}
	ctrl.rt = rt
	mc := g.prog.NewMachine(interp.Config{
		Hooks:         rt,
		TrackPointsTo: track,
	})
	return &GradedExecution{Machine: mc, Runtime: rt, Controller: ctrl}
}

// Run executes the entry function under graded monitoring.
func (e *GradedExecution) Run(entry string, inputs []int64) *interp.Trace {
	return e.Machine.Run(entry, inputs)
}
