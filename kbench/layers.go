package main

// The analysis pipeline in two forms: the default one users run, and a
// traced one that makes the same layer calls one at a time and times each
// from outside the program. Nothing is added inside the program, and neither
// form touches a solver execution hint.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/pointsto"
)

// job is one program to analyse under one invariant configuration.
type job struct {
	name, src string
	cfg       invariant.Config
}

// analyzeDefault is one analysis as users run it: minic.Compile, then
// core.AnalyzeCtx with zero options (both stages), then System.Harden.
func analyzeDefault(j job) (*core.Hardened, error) {
	m, err := minic.Compile(j.name, j.src)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", j.name, err)
	}
	sys, err := core.AnalyzeCtx(context.Background(), m, j.cfg, core.AnalyzeOpts{})
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", j.name, err)
	}
	return sys.Harden(), nil
}

// layerTimes is the cost of one traced analysis, or the sum of several.
type layerTimes struct {
	compile, fbBuild, fbSolve, optBuild, optSolve, harden time.Duration
	ptsAlloc                                              uint64 // bytes allocated by pointsto.New + Solve, both stages
	nodes, pops, bits, sccPasses, prepMerged              int
}

func (l layerTimes) total() time.Duration {
	return l.compile + l.fbBuild + l.fbSolve + l.optBuild + l.optSolve + l.harden
}

func (l *layerTimes) add(o layerTimes) {
	l.compile += o.compile
	l.fbBuild += o.fbBuild
	l.fbSolve += o.fbSolve
	l.optBuild += o.optBuild
	l.optSolve += o.optSolve
	l.harden += o.harden
	l.ptsAlloc += o.ptsAlloc
	l.nodes += o.nodes
	l.pops += o.pops
	l.bits += o.bits
	l.sccPasses += o.sccPasses
	l.prepMerged += o.prepMerged
}

// analyzeTraced makes analyzeDefault's calls one layer at a time: the two
// stages of core.AnalyzeCtx are pointsto.New + Solve under the empty
// configuration (fallback) and under cfg (optimistic, skipped when cfg
// assumes nothing, exactly as AnalyzeCtx does).
func analyzeTraced(j job) (*core.Hardened, layerTimes, error) {
	var lt layerTimes
	start := time.Now()
	m, err := minic.Compile(j.name, j.src)
	lt.compile = time.Since(start)
	if err != nil {
		return nil, lt, fmt.Errorf("compile %s: %w", j.name, err)
	}
	alloc := allocBytes()
	start = time.Now()
	fa := pointsto.New(m, invariant.Config{})
	lt.fbBuild = time.Since(start)
	start = time.Now()
	fb := fa.Solve()
	lt.fbSolve = time.Since(start)
	opt := fb
	if j.cfg.Any() {
		start = time.Now()
		oa := pointsto.New(m, j.cfg)
		lt.optBuild = time.Since(start)
		start = time.Now()
		opt = oa.Solve()
		lt.optSolve = time.Since(start)
	}
	lt.ptsAlloc = allocBytes() - alloc
	sys := &core.System{Module: m, Config: j.cfg, Fallback: fb, Optimistic: opt}
	start = time.Now()
	h := sys.Harden()
	lt.harden = time.Since(start)

	lt.nodes = fb.NodeCount()
	for _, r := range distinct(fb, opt) {
		st := r.Stats()
		lt.pops += st.Iterations
		lt.bits += st.BitsPropagated
		lt.sccPasses += st.SCCPasses
		lt.prepMerged += st.PrepMerged
	}
	return h, lt, nil
}

// distinct returns the solved stages of a system: one when the optimistic
// view aliases the fallback.
func distinct(fb, opt *pointsto.Result) []*pointsto.Result {
	if fb == opt {
		return []*pointsto.Result{fb}
	}
	return []*pointsto.Result{fb, opt}
}

// ptsTotal is the output size of a system: Σ|pts| over the top-level
// pointers of both views.
func ptsTotal(sys *core.System) int {
	n := 0
	for _, r := range []*pointsto.Result{sys.Fallback, sys.Optimistic} {
		for _, p := range r.TopLevelPointers() {
			n += r.SizeOf(p)
		}
	}
	return n
}

// tracePass is one traced pass over a job list next to one default pass over
// the same list.
type tracePass struct {
	layers     []layerTimes    // per job, traced
	defaults   []time.Duration // per job, default pipeline
	tracedWall time.Duration   // wall time of the whole traced pass
	systems    []*core.System  // per job, traced
}

func (p tracePass) sum() layerTimes {
	var s layerTimes
	for _, l := range p.layers {
		s.add(l)
	}
	return s
}

func (p tracePass) defaultWall() time.Duration {
	var d time.Duration
	for _, t := range p.defaults {
		d += t
	}
	return d
}

// traceJobs alternates default and traced passes over jobs until budget is
// spent (at least minPasses pairs), so the two forms see the same machine
// state.
func traceJobs(jobs []job, budget time.Duration, minPasses int) ([]tracePass, error) {
	var passes []tracePass
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < budget {
		var p tracePass
		for _, j := range jobs {
			t := time.Now()
			if _, err := analyzeDefault(j); err != nil {
				return nil, err
			}
			p.defaults = append(p.defaults, time.Since(t))
		}
		t := time.Now()
		for _, j := range jobs {
			h, lt, err := analyzeTraced(j)
			if err != nil {
				return nil, err
			}
			p.layers = append(p.layers, lt)
			p.systems = append(p.systems, h.Sys)
		}
		p.tracedWall = time.Since(t)
		passes = append(passes, p)
	}
	return passes, nil
}

// analysisLayers fills the analysis-layer metrics from traced passes: layer
// times are medians over passes of each pass's sum over its jobs, counts come
// from the last pass, and both are divided by perOp, the number of jobs one
// workload operation stands for. Coverage is the layer sum against the
// default pipeline's time for the same work, and trace overhead is the
// traced pass's wall time against it.
func analysisLayers(rep *report, passes []tracePass, perOp int) {
	var comp, fbB, fbS, optB, optS, hard, alloc, sums, defs, walls []float64
	for _, p := range passes {
		s := p.sum()
		comp = append(comp, ms(s.compile))
		fbB = append(fbB, ms(s.fbBuild))
		fbS = append(fbS, ms(s.fbSolve))
		optB = append(optB, ms(s.optBuild))
		optS = append(optS, ms(s.optSolve))
		hard = append(hard, ms(s.harden))
		alloc = append(alloc, float64(s.ptsAlloc)/1e6)
		sums = append(sums, ms(s.total()))
		defs = append(defs, ms(p.defaultWall()))
		walls = append(walls, ms(p.tracedWall))
	}
	lastPass := passes[len(passes)-1]
	last := lastPass.sum()
	n := float64(perOp)
	l := rep.layers
	l["minic.compile_ms"] = median(comp) / n
	l["pointsto.fallback.build_ms"] = median(fbB) / n
	l["pointsto.fallback.solve_ms"] = median(fbS) / n
	l["pointsto.optimistic.build_ms"] = median(optB) / n
	l["pointsto.optimistic.solve_ms"] = median(optS) / n
	l["cfi.harden_ms"] = median(hard) / n
	l["pointsto.alloc_mb"] = median(alloc) / n
	l["pointsto.graph_nodes"] = float64(last.nodes) / n
	l["pointsto.worklist_pops"] = float64(last.pops) / n
	l["pointsto.bits_propagated"] = float64(last.bits) / n
	l["pointsto.scc_passes"] = float64(last.sccPasses) / n
	l["pointsto.prep_merged"] = float64(last.prepMerged) / n
	l["core.layer_coverage"] = ratio(median(sums), median(defs))
	l["core.trace_overhead"] = ratio(median(walls), median(defs)) - 1

	// Output size beside work: bits propagated per bit of output tells
	// whether solve time grows with the answer or with wasted propagation.
	total := 0
	for _, s := range lastPass.systems {
		total += ptsTotal(s)
	}
	l["pointsto.pts_total"] = float64(total) / n
	l["pointsto.waste_ratio"] = ratio(float64(last.bits), float64(total))
}
