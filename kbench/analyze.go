package main

// analyze-30k: batch IGO analysis of one generated program,
// workload.ScaledProgram(seed, 1000), about 29.6k constraint nodes. One
// operation is minic.Compile → core.AnalyzeCtx (both stages, zero options) →
// System.Harden. This is the solver-bound workload.

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/pointsto"
	"repro/internal/workload"
)

const (
	analyzeUnits = 1000
	minSamples   = 20 // a median needs ten samples beyond it
)

func runAnalyze(o options) (*report, error) {
	units := analyzeUnits
	if o.small {
		units = 12
	}
	rep := newReport()

	// Set-up: generate the program and run one untimed warm-up analysis.
	var (
		j   job
		ref *core.Hardened
		err error
	)
	rep.e2e["setup_s"], err = measureSetup(func() error {
		j = job{name: fmt.Sprintf("scaled-%d", o.seed), src: workload.ScaledProgram(o.seed, units), cfg: invariant.All()}
		ref, err = analyzeDefault(j)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	// Whole-answer oracles, once per run on the warm-up analysis: the
	// optimistic view only removes facts, and both views cover every fact
	// the program shows at run time.
	want := viewsOf(ref.Sys, nil)
	rep.check("optimistic within fallback", want.subsetProblems())
	dynamicSoundness(rep, ref.Sys, programInputs(o.seed, units))

	// Every iteration's answer must equal the warm-up's. Rendering all ~24M
	// points-to elements takes several times as long as the analysis, so
	// each iteration compares every callsite and a window of the pointers;
	// the windows cover every pointer once in minSamples iterations.
	ptrs := make([]pointsto.PtrRef, 0, len(want.ptrs))
	for p := range want.ptrs {
		ptrs = append(ptrs, p)
	}
	sort.Slice(ptrs, func(a, b int) bool {
		if ptrs[a].Fn != ptrs[b].Fn {
			return ptrs[a].Fn < ptrs[b].Fn
		}
		return ptrs[a].Reg < ptrs[b].Reg
	})
	window := (len(ptrs) + minSamples - 1) / minSamples

	var (
		times  []float64
		alloc  uint64
		busy   time.Duration
		loopT0 = time.Now()
	)
	for len(times) < minSamples || time.Since(loopT0) < o.run {
		a0 := allocBytes()
		start := time.Now()
		h, err := analyzeDefault(j)
		d := time.Since(start)
		alloc += allocBytes() - a0
		if err != nil {
			return nil, err
		}
		times = append(times, ms(d))
		busy += d
		lo := (len(times) - 1) % minSamples * window
		got := viewsOf(h.Sys, ptrs[min(lo, len(ptrs)):min(lo+window, len(ptrs))])
		if o.tamperAnalysis != nil {
			o.tamperAnalysis(got)
		}
		rep.check(fmt.Sprintf("analysis %d", len(times)), diffViews(want, got))
	}
	n := float64(len(times))
	rep.e2e["op_p50_ms"] = median(times)
	rep.e2e["ops_per_s"] = n / busy.Seconds()
	rep.e2e["alloc_mb_per_op"] = float64(alloc) / n / 1e6

	if o.trace {
		passes, err := traceJobs([]job{j}, o.run/2, 5)
		if err != nil {
			return nil, err
		}
		analysisLayers(rep, passes, 1)
		// The ledger's bar: the traced layers account for the whole analysis
		// within 10%. A timing ratio is not an answer, so a miss is reported
		// here and does not count as a failed operation.
		if c := rep.layers["core.layer_coverage"]; c < 0.9 || c > 1.1 {
			fmt.Fprintf(os.Stderr, "kbench: coverage check failed: layer times sum to %.3f of the analysis, want 0.9-1.1\n", c)
		}
	}
	return rep, nil
}

// dynamicSoundness is the dynamic oracle, run once per run: every points-to
// fact the program shows at run time must be in both views. Each function of
// the program runs as an entry point on seeded inputs, because a run from
// main alone stops at the first call through a struct callback that no unit
// has registered yet. A run that stops early still contributes the facts it
// observed; at least half the runs must complete.
func dynamicSoundness(rep *report, sys *core.System, inputs []int64) {
	mc := interp.New(sys.Module, interp.Config{TrackPointsTo: true})
	var fb, opt []string
	completed := 0
	for _, f := range sys.Module.Funcs {
		tr := mc.Run(f.Name, inputs)
		if tr.Err == nil {
			completed++
		}
		fb = append(fb, core.SoundnessReport(sys.Fallback, tr)...)
		opt = append(opt, core.SoundnessReport(sys.Optimistic, tr)...)
	}
	rep.check("fallback view vs dynamic traces", fb)
	rep.check("optimistic view vs dynamic traces", opt)
	if funcs := len(sys.Module.Funcs); 2*completed < funcs {
		rep.fail("only %d of %d entry runs completed", completed, funcs)
	}
	fmt.Fprintf(os.Stderr, "kbench: dynamic oracle: %d of %d entry runs completed\n", completed, len(sys.Module.Funcs))
}

// programInputs is the input stream for one run of a scaled program: each
// unit reads at most two non-negative values.
func programInputs(seed int64, units int) []int64 {
	r := rand.New(rand.NewSource(seed))
	in := make([]int64, 2*units+16)
	for i := range in {
		in[i] = r.Int63n(1 << 20)
	}
	return in
}

// views is the answer of one analysis as plain data: top-level pointers'
// points-to sets and every indirect callsite's targets, under both views.
// Objects are keyed by index and slot, which are stable across analyses of
// the same source.
type views struct {
	ptrs  map[pointsto.PtrRef][2][]uint64 // [fallback, optimistic], sorted
	calls map[int][2][]string             // [fallback, optimistic], sorted
}

// viewsOf renders the given pointers, or every non-empty top-level pointer
// of either view when ptrs is nil, plus every callsite.
func viewsOf(sys *core.System, ptrs []pointsto.PtrRef) *views {
	v := &views{ptrs: map[pointsto.PtrRef][2][]uint64{}, calls: map[int][2][]string{}}
	for i, r := range []*pointsto.Result{sys.Fallback, sys.Optimistic} {
		list := ptrs
		if list == nil {
			list = r.TopLevelPointers()
		}
		for _, p := range list {
			refs := r.PointsTo(p.Fn, p.Reg)
			if p.Reg == "" {
				refs = r.ReturnPointsTo(p.Fn)
			}
			keys := make([]uint64, len(refs))
			for k, ref := range refs {
				keys[k] = uint64(ref.Obj.Index)<<32 | uint64(ref.Slot)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			sets := v.ptrs[p]
			sets[i] = keys
			v.ptrs[p] = sets
		}
		for _, site := range r.ICallSites() {
			sets := v.calls[site]
			sets[i] = r.CallTargets(site)
			v.calls[site] = sets
		}
	}
	return v
}

// subsetProblems checks optimistic ⊆ fallback for every pointer and
// callsite: the optimistic view only removes facts.
func (v *views) subsetProblems() []string {
	var out []string
	for p, sets := range v.ptrs {
		if !subset(sets[1], sets[0]) {
			out = append(out, fmt.Sprintf("%s:%s optimistic %v not within fallback %v", p.Fn, p.Reg, sets[1], sets[0]))
		}
	}
	for site, sets := range v.calls {
		if !subset(sets[1], sets[0]) {
			out = append(out, fmt.Sprintf("icall #%d optimistic %v not within fallback %v", site, sets[1], sets[0]))
		}
	}
	return out
}

func subset[T comparable](small, big []T) bool {
	in := make(map[T]bool, len(big))
	for _, x := range big {
		in[x] = true
	}
	for _, x := range small {
		if !in[x] {
			return false
		}
	}
	return true
}

// diffViews reports where got, which renders some of want's pointers and
// every callsite, differs from want (nil when identical).
func diffViews(want, got *views) []string {
	var out []string
	if len(want.calls) != len(got.calls) {
		out = append(out, fmt.Sprintf("%d indirect callsites, want %d", len(got.calls), len(want.calls)))
	}
	for p, g := range got.ptrs {
		w := want.ptrs[p]
		if !equal(w[0], g[0]) || !equal(w[1], g[1]) {
			out = append(out, fmt.Sprintf("%s:%s points to %v, want %v", p.Fn, p.Reg, g, w))
		}
	}
	for site, w := range want.calls {
		g, ok := got.calls[site]
		if !ok || !equal(w[0], g[0]) || !equal(w[1], g[1]) {
			out = append(out, fmt.Sprintf("icall #%d targets %v, want %v", site, g, w))
		}
	}
	return out
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
