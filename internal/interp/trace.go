package interp

import (
	"math/bits"
	"slices"
	"sort"
)

// RegPt identifies a register for dynamic points-to observation.
type RegPt struct {
	Fn  string
	Reg string
}

// SlotPt identifies an analysis slot of an abstract object, by the
// object's IR number.
type SlotPt struct {
	Obj  int
	Slot int
}

// Trace collects the observable behaviour of one Run.
type Trace struct {
	Outputs []int64
	Result  int64
	Steps   int64
	Err     error

	// MemOps counts executed loads and stores (the denominator of the
	// paper's monitor-check density figure).
	MemOps int64

	// edges counts the hits of each conditional-branch edge: edge 2i is
	// branch i not taken, 2i+1 taken. branchSites is the program's branch
	// index -> site table, shared read-only.
	edges       []int64
	branchSites []int

	// ICallObserved maps indirect callsites to the function targets that
	// actually executed (the "Runtime Observed" series of Figure 1).
	ICallObserved map[int]map[string]bool

	// Dynamic points-to observations (TrackPointsTo only): the IR numbers
	// of the objects each register and slot was seen pointing to.
	RegPoints  map[RegPt]map[int]bool
	SlotPoints map[SlotPt]map[int]bool

	// monitors is the set of instrumented monitor sites that fired, one bit
	// per instruction ID.
	monitors []uint64
}

func newTrace(p *Program) *Trace {
	return &Trace{
		edges:         make([]int64, 2*len(p.branchSites)),
		branchSites:   p.branchSites,
		ICallObserved: map[int]map[string]bool{},
		RegPoints:     map[RegPt]map[int]bool{},
		SlotPoints:    map[SlotPt]map[int]bool{},
		monitors:      make([]uint64, p.maxSite/64+1),
	}
}

func (t *Trace) recordICall(site int, target string) {
	m := t.ICallObserved[site]
	if m == nil {
		m = map[string]bool{}
		t.ICallObserved[site] = m
	}
	m[target] = true
}

func (t *Trace) recordReg(fn, reg string, target int) {
	p := RegPt{fn, reg}
	m := t.RegPoints[p]
	if m == nil {
		m = map[int]bool{}
		t.RegPoints[p] = m
	}
	m[target] = true
}

func (t *Trace) recordSlot(obj, slot, target int) {
	p := SlotPt{obj, slot}
	m := t.SlotPoints[p]
	if m == nil {
		m = map[int]bool{}
		t.SlotPoints[p] = m
	}
	m[target] = true
}

func (t *Trace) recordMonitor(site int) { t.monitors[site/64] |= 1 << (site % 64) }

// Merge folds another trace's coverage and observations into t (used to
// aggregate multi-request campaigns). Both traces must come from runs of the
// same module.
func (t *Trace) Merge(o *Trace) {
	if !slices.Equal(t.branchSites, o.branchSites) || len(t.monitors) != len(o.monitors) {
		panic("interp: Merge of traces from different modules")
	}
	for e, n := range o.edges {
		t.edges[e] += n
	}
	for site, targets := range o.ICallObserved {
		for tg := range targets {
			t.recordICall(site, tg)
		}
	}
	for p, keys := range o.RegPoints {
		for k := range keys {
			t.recordReg(p.Fn, p.Reg, k)
		}
	}
	for p, keys := range o.SlotPoints {
		for k := range keys {
			t.recordSlot(p.Obj, p.Slot, k)
		}
	}
	for i, w := range o.monitors {
		t.monitors[i] |= w
	}
	t.Steps += o.Steps
	t.MemOps += o.MemOps
}

// BranchCoverage returns (executed, total) branch edges.
func (t *Trace) BranchCoverage() (executed, total int) {
	for _, n := range t.edges {
		if n > 0 {
			executed++
		}
	}
	return executed, len(t.edges)
}

// BranchBuckets returns, per executed branch edge, the AFL-style log2 hit
// bucket (1, 2, 3-4, 5-8, ...). Fuzzers use new buckets as a coverage
// signal.
func (t *Trace) BranchBuckets() map[[2]int]int {
	out := map[[2]int]int{}
	for e, n := range t.edges {
		if n > 0 {
			out[[2]int{t.branchSites[e/2], e % 2}] = bits.Len64(uint64(n))
		}
	}
	return out
}

// MonitorsExecuted returns the number of distinct monitor sites that fired.
func (t *Trace) MonitorsExecuted() int {
	n := 0
	for _, w := range t.monitors {
		n += bits.OnesCount64(w)
	}
	return n
}

// ObservedTargets returns the sorted observed targets of an indirect
// callsite.
func (t *Trace) ObservedTargets(site int) []string {
	var out []string
	for tg := range t.ICallObserved[site] {
		out = append(out, tg)
	}
	sort.Strings(out)
	return out
}
