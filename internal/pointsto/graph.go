package pointsto

import (
	"context"
	"time"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/invariant"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// gepEdge is a weighted Field-Of edge: pts(to) ⊇ {o+off | o ∈ pts(from)}.
type gepEdge struct {
	to       int32
	off      int32
	site     int32 // FieldAddr instruction ID
	collapse bool  // baseline PWC mitigation: objects flowing through lose field sensitivity
	pwcSeen  bool  // this edge has been recorded as part of a PWC
}

// depEdge is a Load or Store constraint endpoint (resolution adds derived
// Copy edges per Table 1).
type depEdge struct {
	other int32 // Load: destination register node; Store: source value node
	site  int32 // the load/store instruction ID
}

// arithEdge is a PtrAdd flow: the destination receives the base's points-to
// set subject to the arbitrary-arithmetic policy (field collapse at baseline,
// struct filtering under the PA invariant).
type arithEdge struct {
	to   int32
	site int32 // PtrAdd instruction ID
}

// icallSite is an indirect callsite awaiting target resolution.
type icallSite struct {
	site      int32 // ICall instruction ID
	fptr      int32 // function-pointer node
	args      []int32
	dest      int32
	connected map[int]bool // object index -> already wired
}

// edgeKey identifies a copy edge for dedupe.
type edgeKey struct{ from, to int32 }

// Origin is one recorded derivation of an object in a points-to set
// (Provenance): the constraint site that added it and the node it flowed
// from.
type Origin struct {
	Site    int // constraint instruction ID (0 for primitive edges)
	Trigger int // node the object flowed from (-1 for Addr-Of)
}

// provKey and provEntry implement derivation provenance for introspection:
// how did object obj get into pts(node)?
type provKey struct {
	node int32
	obj  int32 // object-slot node id
}

type provEntry struct {
	site    int32 // edge/constraint site responsible
	srcNode int32 // node the object flowed from (-1 for Addr-Of)
}

// Stats summarizes one solver run.
type Stats struct {
	Iterations     int // worklist pops
	CopyEdges      int // total copy edges (primitive + derived)
	DerivedEdges   int // derived copy edges added during resolution
	FieldCollapses int // objects turned field-insensitive
	SCCCollapses   int // cycle nodes merged
	SCCPasses      int // cycle-detection sweeps over the constraint graph
	PWCs           int // positive-weight cycles encountered
	MonitorSites   int // runtime monitors implied by assumed invariants
	DeltaFlushes   int // full-set flushes seeded by new edges / SCC merges / Restore
	BitsPropagated int // pointee bits consumed by processNode visits
	BitsAvoided    int // pointee bits a full re-propagation would have re-consumed
	PrepMerged     int // always 0 (prep merges online only); kept for the kbench ledger's reader
	HCDCollapses   int // nodes merged online by hybrid cycle detection
	LCDCollapses   int // nodes merged by the lazy-cycle-detection fallback
}

// GrowthEvent describes one points-to set update (§4.1 introspection).
type GrowthEvent struct {
	Node    int    // constraint node that grew
	Desc    string // human-readable node identity
	Added   int    // objects added by this update
	Total   int    // cardinality after the update
	Types   int    // distinct object types now in the set
	Site    int    // constraint instruction responsible (0 = Addr-Of init)
	Derived bool   // update came from a derived constraint
	// Backtrack lazily walks derivation provenance from this update toward
	// primitive constraints, returning up to maxLevels constraint sites
	// (most recent derivation first).
	Backtrack func(maxLevels int) []int
}

// Tracer receives introspection events (§4.1) during solving. All methods
// are called synchronously from the solver.
type Tracer interface {
	// Growth fires when pts(node) gains objects.
	Growth(ev GrowthEvent)
	// Cycle fires when a cycle is detected; pwc marks positive-weight cycles.
	Cycle(size int, pwc bool)
}

// Analysis is one pointer-analysis run over a module: constraint graph,
// solver state, and results.
type Analysis struct {
	mod     *ir.Module
	layouts *ir.Layouts
	cfg     invariant.Config
	tracer  Tracer

	nodes   []node
	rep     []int32
	pts     []*bitset.Set
	delta   []*bitset.Set // per-node pointees added since the node's last processing
	objects []*Object

	copyTo    [][]int32
	gepTo     [][]*gepEdge
	loadTo    [][]depEdge
	storeFrom [][]depEdge
	arithTo   [][]arithEdge
	icallsAt  [][]*icallSite

	copyEdges   map[edgeKey]struct{} // existing copy edges, for dedupe
	regNodes    map[regKey]int
	retNodes    map[string]int
	objBySite   map[int]*Object
	objByGlobal map[string]*Object
	objByFunc   map[string]*Object
	icallSites  []*icallSite

	worklist []int32
	inWL     []bool

	// PA policy state: PtrAdd site -> filtered object indexes.
	paFiltered map[int]map[int]bool
	// Ctx policy state, computed by the ctx pre-pass.
	ctxPlan   *ctxPlan
	ctxSkip   map[int]bool // instruction IDs whose generic constraint is skipped
	provs     map[provKey][]provEntry
	traceProv bool

	// Invariant records are kept per kind so they can be rebuilt after an
	// incremental Restore: Ctx records are fixed at build time, PWC records
	// accumulate during solving, and PA records derive from the live
	// paFiltered state.
	ctxRecords []invariant.Record
	pwcList    []invariant.Record
	pwcRecords map[string]bool // dedupe of recorded PWC cycles
	paDisabled map[int]bool    // PtrAdd sites whose PA assumption was restored
	pwcDone    map[int]bool    // PWC field sites already restored to baseline
	noDelta    bool            // full re-propagation: set by New below DeltaAutoThreshold nodes

	// Offline preprocessing (hcd.go): the offline half of hybrid cycle
	// detection runs once, lazily, at the first resolve, before any
	// propagation. New turns prep on; only the in-package tests turn it
	// off, to build their no-prep reference.
	prep       bool
	prepDone   bool
	hcdEntries []hcdEntry
	hcdAt      [][]int32        // rep node -> indexes into hcdEntries
	lcdSeen    map[edgeKey]bool // copy edges already probed by the LCD fallback

	stats   Stats
	flushed Stats               // stats already exported to metrics
	metrics *telemetry.Registry // nil disables telemetry

	// Tracing state. The parent span (if any) nests this analysis's phase
	// spans under the caller's stage span; build timing is captured in New
	// (before a registry can be attached) and exported retroactively on the
	// first flush. Hot-path instruments are resolved once in SetMetrics so
	// per-pop recording is an atomic add — or, with no registry, a nil check.
	parentSpan   *telemetry.Span
	buildStart   time.Time
	buildDur     time.Duration
	buildEmitted bool
	hDeltaSize   *telemetry.Histogram // pointsto/delta/size
	hWLDepth     *telemetry.Histogram // pointsto/worklist/depth
	hPtsSize     *telemetry.Histogram // pointsto/pts/size

	// SolveCtx budget state (budget.go). budgeted gates every per-step check,
	// so an unbounded Solve pays one bool test per pop and nothing else.
	faults    *faultinject.Plan // armed fault-injection plan; nil = inert
	solveCtx  context.Context   // context of the active SolveCtx, nil otherwise
	stepsLeft int64             // >0 steps remaining, <0 exhausted, 0 unlimited
	ctxPolls  int64             // steps since SolveCtx began, for context polling
	budgeted  bool
	abortErr  error // pending *AbortError recorded by budgetStep
}

// DeltaAutoThreshold is the node count below which New turns difference
// (delta) propagation off. With delta on, every node tracks the pointees
// added since its last processing, and constraint processing consumes only
// that delta, with new edges, SCC merges, and incremental Restores seeding
// full-set flushes. That per-node bookkeeping only amortizes once sets are
// re-propagated many times: delta ran at 0.87–0.99x full re-propagation's
// speed on every sub-millisecond paper app (EXPERIMENTS.md, "Removed
// execution hints"). Results are identical either way (asserted by the
// differential oracle tests); only solve cost changes.
const DeltaAutoThreshold = 2048

// New builds the constraint graph for m under cfg. Call Solve to run the
// analysis.
func New(m *ir.Module, cfg invariant.Config) *Analysis {
	a := &Analysis{
		mod:         m,
		layouts:     ir.NewLayouts(),
		cfg:         cfg,
		copyEdges:   map[edgeKey]struct{}{},
		regNodes:    map[regKey]int{},
		retNodes:    map[string]int{},
		objBySite:   map[int]*Object{},
		objByGlobal: map[string]*Object{},
		objByFunc:   map[string]*Object{},
		paFiltered:  map[int]map[int]bool{},
		ctxSkip:     map[int]bool{},
		pwcRecords:  map[string]bool{},
		paDisabled:  map[int]bool{},
		pwcDone:     map[int]bool{},
		prep:        true,
	}
	a.buildStart = time.Now()
	a.build()
	a.buildDur = time.Since(a.buildStart)
	a.noDelta = len(a.nodes) < DeltaAutoThreshold
	return a
}

// SetMetrics attaches a telemetry registry; the solver reports constraint
// counts, worklist pops, SCC rounds, per-phase wall time, and
// distribution histograms (delta sizes, fixpoint points-to set sizes,
// worklist depth per round) into it at the end of every Solve (and of every
// incremental re-solve). A nil registry (the default) keeps the solver
// telemetry-free.
// Must be called before Solve.
func (a *Analysis) SetMetrics(r *telemetry.Registry) {
	a.metrics = r
	a.hDeltaSize = r.Histogram("pointsto/delta/size")
	a.hWLDepth = r.Histogram("pointsto/worklist/depth")
	a.hPtsSize = r.Histogram("pointsto/pts/size")
}

// SetSpan nests this analysis's phase spans (build, solve, per-round
// propagate/scc) under parent in the attached registry's span log.
// Optional; without it the phase spans are roots. Must be called before
// Solve.
func (a *Analysis) SetSpan(parent *telemetry.Span) { a.parentSpan = parent }

// SetTracer installs an introspection tracer; it must be called before Solve.
func (a *Analysis) SetTracer(t Tracer) {
	a.tracer = t
	a.traceProv = t != nil
	if a.traceProv {
		a.provs = map[provKey][]provEntry{}
	}
}

// Config returns the invariant configuration of this run.
func (a *Analysis) Config() invariant.Config { return a.cfg }

// Module returns the analyzed module.
func (a *Analysis) Module() *ir.Module { return a.mod }

// push enqueues a node for re-processing.
func (a *Analysis) push(n int) {
	n = a.find(n)
	a.ensureWL()
	if a.inWL[n] {
		return
	}
	a.inWL[n] = true
	a.worklist = append(a.worklist, int32(n))
}

// ensureWL sizes the in-worklist flags to the node count.
func (a *Analysis) ensureWL() {
	for len(a.inWL) < len(a.nodes) {
		a.inWL = append(a.inWL, false)
	}
}

// ptsOf returns the points-to set of the representative of n, allocating it
// on first use.
func (a *Analysis) ptsOf(n int) *bitset.Set {
	n = a.find(n)
	if a.pts[n] == nil {
		a.pts[n] = bitset.New(0)
	}
	return a.pts[n]
}

// deltaOf returns the pending-delta set of representative node n, allocating
// it on first use. Callers must resolve n to its representative first.
func (a *Analysis) deltaOf(n int) *bitset.Set {
	if a.delta[n] == nil {
		a.delta[n] = bitset.New(0)
	}
	return a.delta[n]
}

// seedDelta schedules a full-set flush of n: the node's entire points-to set
// re-enters its delta, so the next processing pushes everything through the
// node's constraints. Required whenever a constraint gains visibility it did
// not have while past bits flowed — a new gep/load/store/arith/icall edge,
// an SCC merge (the survivor inherits edges that never saw its set), or an
// incremental Restore re-admitting constraints.
func (a *Analysis) seedDelta(n int) {
	n = a.find(n)
	if !a.noDelta && a.pts[n] != nil && !a.pts[n].Empty() {
		a.deltaOf(n).UnionWith(a.pts[n])
		a.stats.DeltaFlushes++
	}
	a.push(n)
}

// typeCount returns the number of distinct object types currently in
// pts(n). Introspection-only (O(set) per call).
func (a *Analysis) typeCount(n int) int {
	if a.pts[n] == nil {
		return 0
	}
	seen := map[string]bool{}
	a.pts[n].ForEach(func(o int) bool {
		obj := a.objOfNode(o)
		if obj == nil {
			return true
		}
		name := "<unknown>"
		if obj.Type != nil {
			name = ir.BaseName(obj.Type)
		} else if obj.Kind == ObjFunc {
			name = "<function>"
		}
		seen[name] = true
		return true
	})
	return len(seen)
}

// backtrackFn builds the lazy provenance walker for a growth event.
func (a *Analysis) backtrackFn(n, o int) func(int) []int {
	return func(maxLevels int) []int {
		var sites []int
		cur := int32(a.find(n))
		target := int32(o)
		for level := 0; level < maxLevels; level++ {
			entries := a.provs[provKey{cur, target}]
			if len(entries) == 0 {
				break
			}
			e := entries[len(entries)-1]
			sites = append(sites, int(e.site))
			if e.srcNode < 0 {
				break
			}
			cur = int32(a.find(int(e.srcNode)))
		}
		return sites
	}
}

// emitGrowth dispatches a growth event to the tracer.
func (a *Analysis) emitGrowth(n, added, site, obj int, derived bool) {
	a.tracer.Growth(GrowthEvent{
		Node:      n,
		Desc:      a.describeNode(n),
		Added:     added,
		Total:     a.pts[n].Len(),
		Types:     a.typeCount(n),
		Site:      site,
		Derived:   derived,
		Backtrack: a.backtrackFn(n, obj),
	})
}

// addToPts inserts object-slot node o into pts(n), recording provenance and
// growth events, and enqueues n on change. New pointees also enter the
// node's delta so the next processing propagates exactly them.
func (a *Analysis) addToPts(n, o, site, srcNode int, derived bool) bool {
	n = a.find(n)
	if !a.ptsOf(n).Add(o) {
		return false
	}
	if !a.noDelta {
		a.deltaOf(n).Add(o)
	}
	if a.traceProv {
		k := provKey{int32(n), int32(o)}
		if es := a.provs[k]; len(es) < 5 {
			a.provs[k] = append(es, provEntry{site: int32(site), srcNode: int32(srcNode)})
		}
	}
	if a.tracer != nil {
		a.emitGrowth(n, 1, site, o, derived)
	}
	a.push(n)
	return true
}

// unionPts merges pts(src) into pts(dst) (used by copy propagation when an
// edge is first created and must see the source's full set).
func (a *Analysis) unionPts(dst, src, site int, derived bool) bool {
	src = a.find(src)
	return a.unionSetInto(dst, a.pts[src], src, site, derived)
}

// unionSetInto merges an explicit pointee set into pts(dst), recording the
// newly-added bits in dst's delta (one pass via bitset.UnionDelta), plus
// provenance per added object when tracing. srcNode is the node the set
// flowed from (for self-copy suppression and provenance). This is the copy
// propagation primitive: full-set unions pass pts(src); difference
// propagation passes only src's consumed delta.
func (a *Analysis) unionSetInto(dst int, set *bitset.Set, srcNode, site int, derived bool) bool {
	dst = a.find(dst)
	if dst == srcNode || set == nil || set.Empty() {
		return false
	}
	d := a.ptsOf(dst)
	if a.traceProv {
		added, last := 0, -1
		set.ForEach(func(o int) bool {
			if d.Add(o) {
				if !a.noDelta {
					a.deltaOf(dst).Add(o)
				}
				added++
				last = o
				k := provKey{int32(dst), int32(o)}
				if es := a.provs[k]; len(es) < 5 {
					a.provs[k] = append(es, provEntry{site: int32(site), srcNode: int32(srcNode)})
				}
			}
			return true
		})
		if added == 0 {
			return false
		}
		if a.tracer != nil {
			a.emitGrowth(dst, added, site, last, derived)
		}
		a.push(dst)
		return true
	}
	var into *bitset.Set
	if !a.noDelta {
		into = a.deltaOf(dst)
	}
	added := d.UnionDelta(set, into)
	if added == 0 {
		return false
	}
	if a.tracer != nil {
		a.emitGrowth(dst, added, site, -1, derived)
	}
	a.push(dst)
	return true
}

// addCopy inserts a copy edge from→to, once per pair of representatives.
// The source's current points-to set is propagated immediately.
func (a *Analysis) addCopy(from, to, site int, derived bool) {
	from, to = a.find(from), a.find(to)
	if from == to {
		return
	}
	k := edgeKey{int32(from), int32(to)}
	if _, exists := a.copyEdges[k]; exists {
		return
	}
	a.copyEdges[k] = struct{}{}
	a.copyTo[from] = append(a.copyTo[from], int32(to))
	a.stats.CopyEdges++
	if derived {
		a.stats.DerivedEdges++
	}
	a.unionPts(to, from, site, derived)
}

// addGep inserts a Field-Of edge. The new edge has seen none of pts(from),
// so the node's full set is flushed back into its delta.
func (a *Analysis) addGep(from, to, off, site int) {
	from = a.find(from)
	a.gepTo[from] = append(a.gepTo[from], &gepEdge{to: int32(to), off: int32(off), site: int32(site)})
	a.seedDelta(from)
}

// addLoad registers the Load constraint dest = *addr, flushing addr's set.
func (a *Analysis) addLoad(addr, dest, site int) {
	addr = a.find(addr)
	a.loadTo[addr] = append(a.loadTo[addr], depEdge{other: int32(dest), site: int32(site)})
	a.seedDelta(addr)
}

// addStore registers the Store constraint *addr = src, flushing addr's set.
func (a *Analysis) addStore(addr, src, site int) {
	addr = a.find(addr)
	a.storeFrom[addr] = append(a.storeFrom[addr], depEdge{other: int32(src), site: int32(site)})
	a.seedDelta(addr)
}

// addArith registers the PtrAdd flow dest = base + unknown, flushing base's
// set.
func (a *Analysis) addArith(base, dest, site int) {
	base = a.find(base)
	a.arithTo[base] = append(a.arithTo[base], arithEdge{to: int32(dest), site: int32(site)})
	a.seedDelta(base)
}

// union merges node y into node x for online cycle collapse, counting the
// merge as an SCC collapse. Offline preprocessing and the HCD/LCD paths call
// mergeNodes directly so each mechanism's merges are attributed to its own
// stat.
func (a *Analysis) union(x, y int) {
	if a.mergeNodes(x, y) {
		a.stats.SCCCollapses++
	}
}

// mergeNodes merges node y into node x (resolving both to reps first),
// combining points-to sets and adjacency, and reschedules the survivor. It
// reports whether a merge actually happened. The survivor's delta is
// re-seeded with the merged full set: x's old edges never saw pts(y), y's
// old edges never saw pts(x), and after the merge both edge lists face the
// combined set, so per-edge bookkeeping would be needed to flush anything
// less. Merges are rare relative to propagation, so the full flush is the
// right trade.
func (a *Analysis) mergeNodes(x, y int) bool {
	x, y = a.find(x), a.find(y)
	if x == y {
		return false
	}
	a.rep[y] = int32(x)
	if a.pts[y] != nil {
		a.ptsOf(x).UnionWith(a.pts[y])
		a.pts[y] = nil
	}
	a.delta[y] = nil
	a.copyTo[x] = append(a.copyTo[x], a.copyTo[y]...)
	a.copyTo[y] = nil
	a.gepTo[x] = append(a.gepTo[x], a.gepTo[y]...)
	a.gepTo[y] = nil
	a.loadTo[x] = append(a.loadTo[x], a.loadTo[y]...)
	a.loadTo[y] = nil
	a.storeFrom[x] = append(a.storeFrom[x], a.storeFrom[y]...)
	a.storeFrom[y] = nil
	a.arithTo[x] = append(a.arithTo[x], a.arithTo[y]...)
	a.arithTo[y] = nil
	a.icallsAt[x] = append(a.icallsAt[x], a.icallsAt[y]...)
	a.icallsAt[y] = nil
	if a.hcdAt != nil {
		a.hcdAt[x] = append(a.hcdAt[x], a.hcdAt[y]...)
		a.hcdAt[y] = nil
	}
	a.seedDelta(x)
	return true
}
