package pointsto

import (
	"context"
	"math"
	"math/bits"
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

// nodeState is one constraint node's solver state: its points-to set, the
// pointees added since its last processing (delta) and its copy list, which
// every pop reads, and its other constraint lists, which most nodes never
// get, held apart in a cold record. A node merged away holds nothing; its
// representative holds what it had. A derived analysis reads its parent's
// record until it first writes the node (own).
type nodeState struct {
	pts, delta *bitset.Set
	copyTo     []copyEdge
	cold       *nodeCons // nil until the node's first such constraint
}

// nodeCons is the cold part of a node's record: the constraint lists other
// than copy edges. A node gets one at its first such constraint and keeps
// it while it is a representative. Read it through cons; write it through
// ownCons.
type nodeCons struct {
	gepTo     []*gepEdge
	loadTo    []depEdge
	storeFrom []depEdge
	arithTo   []arithEdge
	icalls    []*icallSite
	hcd       []int32 // indexes into hcdEntries (offline HCD)
}

// noCons is the cold record of every node without one. It is shared and
// read-only.
var noCons nodeCons

// cons returns the node's cold record for reading, or the shared empty one.
func (ns *nodeState) cons() *nodeCons {
	if ns.cold == nil {
		return &noCons
	}
	return ns.cold
}

// ownCons returns representative n's cold record, made this analysis's own
// (with the rest of the record) and allocated on first use, before a write.
func (a *Analysis) ownCons(n int) *nodeCons {
	ns := a.own(n)
	if ns.cold == nil {
		ns.cold = new(nodeCons)
	}
	return ns.cold
}

// copyEdge is one entry of a node's copy list, the constraint pts(to) ⊇
// pts(from): the target node id, with the sign bit set once the LCD
// fallback has probed the edge (hcd.go). The mark lives inside the int32 so
// copy lists stay flat and merges concatenate them without allocating per
// edge; read the target only through to.
type copyEdge int32

// probedBit marks a copy edge the LCD fallback has already probed.
const probedBit = copyEdge(math.MinInt32)

// to returns the edge's target node id, without the probe mark.
func (e copyEdge) to() int { return int(e &^ probedBit) }

// probed reports whether the LCD fallback has probed the edge.
func (e copyEdge) probed() bool { return e&probedBit != 0 }

// edgeSet is the set of copy edges addCopy has inserted, for dedupe: an
// open-addressing hash table of packed (from, to) keys with linear probing
// and a Fibonacci hash, doubled at ¾ load. Slot value 0 marks an empty
// slot; the only pair that packs to 0 is the self-edge 0→0, and addCopy
// never inserts a self-edge. The zero value is an empty set.
//
// A derived analysis layers its set on its parent's (derive): the keys
// below are read through base, and inserts land in the top table alone.
type edgeSet struct {
	slots  []uint64
	n      int      // occupied slots
	shift  uint8    // 64 - log2(len(slots))
	base   *edgeSet // read-only layers below this one; nil in a root
	layers int      // length of the base chain
}

// maxEdgeLayers bounds the base chain a lookup walks; deriving past it
// flattens every layer into one table.
const maxEdgeLayers = 4

// edgeSetMinSlots is the table size of the first insert.
const edgeSetMinSlots = 64

// packEdge packs a copy edge into its edgeSet key.
func packEdge(from, to int) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// insert adds key k (nonzero) and reports whether it was absent.
func (s *edgeSet) insert(k uint64) bool {
	if s.base != nil && s.base.has(k) {
		return false
	}
	if s.slots == nil {
		s.resize(edgeSetMinSlots)
	}
	i := s.probe(k)
	if s.slots[i] == k {
		return false
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.resize(2 * len(s.slots))
		i = s.probe(k)
	}
	s.slots[i] = k
	s.n++
	return true
}

// probe returns the slot holding k, or the empty slot where k belongs.
func (s *edgeSet) probe(k uint64) int {
	mask := len(s.slots) - 1
	i := int((k * 0x9E3779B97F4A7C15) >> s.shift)
	for s.slots[i] != 0 && s.slots[i] != k {
		i = (i + 1) & mask
	}
	return i
}

// resize rehashes every key into a table of size slots, a power of two.
func (s *edgeSet) resize(size int) {
	old := s.slots
	s.slots = make([]uint64, size)
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, k := range old {
		if k != 0 {
			s.slots[s.probe(k)] = k
		}
	}
}

// has reports whether k is in s or in a layer below it.
func (s *edgeSet) has(k uint64) bool {
	for ; s != nil; s = s.base {
		if s.slots != nil && s.slots[s.probe(k)] == k {
			return true
		}
	}
	return false
}

// derive returns a set holding every key of s, into which inserts do not
// reach s. It reads s's tables as layers instead of copying them, so s must
// not change while the derived set is in use; past maxEdgeLayers layers it
// copies them into one table instead. The derived set holds its own copy
// of s's header, so it does not keep the struct s lives in reachable.
func (s *edgeSet) derive() edgeSet {
	if s.n == 0 {
		s = s.base // an empty table adds nothing to read through
	}
	if s == nil {
		return edgeSet{}
	}
	if s.layers < maxEdgeLayers-1 {
		layer := *s
		return edgeSet{base: &layer, layers: s.layers + 1}
	}
	n := 0
	for l := s; l != nil; l = l.base {
		n += l.n // layers are disjoint: insert checks the ones below
	}
	size := edgeSetMinSlots
	for 4*(n+1) > 3*size {
		size *= 2
	}
	var f edgeSet
	f.resize(size)
	for l := s; l != nil; l = l.base {
		for _, k := range l.slots {
			if k != 0 {
				f.slots[f.probe(k)] = k
			}
		}
	}
	f.n = n
	return f
}

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

// assumption is one likely invariant an optimistic solve holds (§4.2–4.4):
// the record it reports, and whether it is still held. Ctx and PWC records
// are complete when assumed; a PA record gathers its filtered objects,
// sorted, as the solve filters them, and gets its Desc when listed. No
// record's lists are written after they are made, so copies of an entry
// (a derived table, a reported record) share them. A restore clears held
// and keeps the entry: a restored PtrAdd site stays unfiltered, and a
// restored cycle is not recorded again.
type assumption struct {
	invariant.Record
	held bool
}

// Analysis is one pointer-analysis run over a module: constraint graph,
// solver state, and results.
type Analysis struct {
	mod    *ir.Module
	cfg    invariant.Config
	tracer Tracer

	nodes   []node
	rep     []int32
	state   []*nodeState // per node: its solver state (nodeState)
	slab    []nodeState  // the records New reserves; state points into it
	objects []*Object

	copyEdges  edgeSet // every copy edge addCopy inserted, for dedupe
	regNodes   map[regKey]int
	retNodes   map[string]int
	icallSites []*icallSite

	worklist []int32
	inWL     []bool

	ctxPlan   *ctxPlan // the Ctx pre-pass's findings, computed under every configuration
	provs     map[provKey][]provEntry
	traceProv bool

	// The likely invariants this analysis assumes, one entry per record
	// (assumption), and the PWC field sites a restore has abandoned: §4.3
	// assumes a cycle while any of its sites is unrestored, so a cycle
	// re-found after a restore is judged per site.
	assumed     []assumption
	pwcRestored map[int]bool
	noDelta     bool // full re-propagation: set by New below DeltaAutoThreshold nodes

	// Offline preprocessing (hcd.go): the offline half of hybrid cycle
	// detection runs once, lazily, at the first resolve, before any
	// propagation. New turns prep on; only the in-package tests turn it
	// off, to build their no-prep reference.
	prep       bool
	prepDone   bool
	hcdEntries []hcdEntry

	// Scratch buffers reused across the propagation loop so it allocates
	// nothing per pop: the pending pointees processNode lists, and the LCD
	// probe's search state (a per-node visit stamp, valid only when it
	// equals lcdGen, plus the DFS stack). They carry nothing between uses;
	// a derived analysis starts with its own.
	elemBuf  []int
	lcdVisit []lcdVisit
	lcdGen   uint32
	lcdStack []int32

	// Tarjan's working state, shared by offlineHCD, which sizes it for its
	// ref graph of twice the nodes, and every later sccPass. Like spare, it
	// is per solve: a derived analysis starts without one, and a finished
	// solve drops it.
	sccScratch tarjanScratch

	// Consumed delta sets, emptied, that deltaOf hands out again before it
	// allocates: processNode releases the set it propagated and mergeNodes
	// the merged-away node's. Only delta sets ever enter the list, never a
	// points-to set; it is per solve, so a derived analysis starts it empty
	// and a finished solve drops it.
	spare []*bitset.Set

	// Copy-on-write derivation (incremental.go). A derived analysis shares
	// its parent's node records until its first write: owned[n] marks the
	// nodes whose record is this analysis's own. A root analysis owns every
	// node (owned is nil), so its solve pays one nil check per write. The
	// objects and the node maps are shared whole until their first write.
	owned       []bool
	sharedObjs  bool
	sharedNames bool

	// Position of processNode's copy-list walk (solve.go): the node whose
	// list it walks (-1 if none), and how far merges have moved the walked
	// edges from the list's start.
	walking int
	walkOff int

	stats   Stats
	flushed Stats               // stats already exported to metrics
	metrics *telemetry.Registry // nil disables telemetry

	// Tracing state. Build timing is captured in New (before a registry can
	// be attached) and exported retroactively by the first solve, under the
	// span its context carries. Hot-path instruments are resolved once in
	// SetMetrics so per-pop recording is an atomic add — or, with no
	// registry, a nil check.
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
		cfg:         cfg,
		retNodes:    map[string]int{},
		pwcRestored: map[int]bool{},
		prep:        true,
		walking:     -1,
		objects:     make([]*Object, m.NumObjects()),
	}
	// Size the per-node tables and the record slab once, from the module's
	// own counts, so neither the build nor the solve (which adds parameter
	// and return nodes as indirect calls resolve) grows them.
	regs, hint := a.nodeBound()
	a.regNodes = make(map[regKey]int, regs)
	a.nodes = make([]node, 0, hint)
	a.rep = make([]int32, 0, hint)
	a.state = make([]*nodeState, 0, hint)
	a.slab = make([]nodeState, 0, hint)
	a.inWL = make([]bool, 0, hint)
	a.buildStart = time.Now()
	a.build()
	a.buildDur = time.Since(a.buildStart)
	a.noDelta = len(a.nodes) < DeltaAutoThreshold
	return a
}

// SetMetrics attaches a telemetry registry; the solver reports constraint
// counts, worklist pops, SCC rounds, phase spans, and
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
	if a.inWL[n] {
		return
	}
	a.inWL[n] = true
	a.worklist = append(a.worklist, int32(n))
}

// ptsOf returns the points-to set of the representative of n, allocating it
// on first use.
func (a *Analysis) ptsOf(n int) *bitset.Set {
	ns := a.own(a.find(n))
	if ns.pts == nil {
		ns.pts = bitset.New(0)
	}
	return ns.pts
}

// deltaOf returns the pending-delta set of representative node n, taking a
// spare set or allocating one on first use. Callers must resolve n to its
// representative and own it first.
func (a *Analysis) deltaOf(n int) *bitset.Set {
	ns := a.state[n]
	if ns.delta == nil {
		if k := len(a.spare) - 1; k >= 0 {
			ns.delta = a.spare[k]
			a.spare = a.spare[:k]
		} else {
			ns.delta = bitset.New(0)
		}
	}
	return ns.delta
}

// release empties a delta set no node holds any more and puts it on the
// spare list.
func (a *Analysis) release(s *bitset.Set) {
	s.Clear()
	a.spare = append(a.spare, s)
}

// seedDelta schedules a full-set flush of n: the node's entire points-to set
// re-enters its delta, so the next processing pushes everything through the
// node's constraints. Required whenever a constraint gains visibility it did
// not have while past bits flowed — a new gep/load/store/arith/icall edge,
// an SCC merge (the survivor inherits edges that never saw its set), or an
// incremental Restore re-admitting constraints.
func (a *Analysis) seedDelta(n int) {
	n = a.find(n)
	if p := a.state[n].pts; !a.noDelta && p != nil && !p.Empty() {
		a.own(n)
		a.deltaOf(n).UnionWith(p) // p may be the parent's: read, not written
		a.stats.DeltaFlushes++
	}
	a.push(n)
}

// typeCount returns the number of distinct object types currently in
// pts(n). Introspection-only (O(set) per call).
func (a *Analysis) typeCount(n int) int {
	if a.state[n].pts == nil {
		return 0
	}
	seen := map[string]bool{}
	a.state[n].pts.ForEach(func(o int) bool {
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

// backtrack walks derivation provenance from object-slot node o in pts(n)
// toward primitive constraints, up to maxLevels derivations, returning the
// constraint sites it passes (most recent derivation first). It writes
// nothing, so it serves the tracer during a solve and concurrent readers of
// a finished analysis alike.
func (a *Analysis) backtrack(n, o, maxLevels int) []int {
	var sites []int
	cur := a.findRead(n)
	for level := 0; level < maxLevels; level++ {
		entries := a.provs[provKey{int32(cur), int32(o)}]
		if len(entries) == 0 {
			break
		}
		e := entries[len(entries)-1]
		sites = append(sites, int(e.site))
		if e.srcNode < 0 {
			break // primitive Addr-Of
		}
		cur = a.findRead(int(e.srcNode))
	}
	return sites
}

// emitGrowth dispatches a growth event to the tracer.
func (a *Analysis) emitGrowth(n, added, site, obj int, derived bool) {
	a.tracer.Growth(GrowthEvent{
		Node:      n,
		Desc:      a.describeNode(n),
		Added:     added,
		Total:     a.state[n].pts.Len(),
		Types:     a.typeCount(n),
		Site:      site,
		Derived:   derived,
		Backtrack: func(maxLevels int) []int { return a.backtrack(n, obj, maxLevels) },
	})
}

// addToPts inserts object-slot node o into pts(n), recording provenance and
// growth events, and enqueues n on change. New pointees also enter the
// node's delta so the next processing propagates exactly them.
func (a *Analysis) addToPts(n, o, site, srcNode int, derived bool) bool {
	n = a.find(n)
	if a.borrowed(n) {
		if p := a.state[n].pts; p != nil && p.Has(o) {
			return false
		}
	}
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
	return a.unionSetInto(dst, a.state[src].pts, src, site, derived)
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
	if a.borrowed(dst) && set.SubsetOf(a.state[dst].pts) {
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
	if !a.copyEdges.insert(packEdge(from, to)) {
		return
	}
	ns := a.own(from)
	ns.copyTo = append(ns.copyTo, copyEdge(to))
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
	c := a.ownCons(from)
	c.gepTo = append(c.gepTo, &gepEdge{to: int32(to), off: int32(off), site: int32(site)})
	a.seedDelta(from)
}

// addLoad registers the Load constraint dest = *addr, flushing addr's set.
func (a *Analysis) addLoad(addr, dest, site int) {
	addr = a.find(addr)
	c := a.ownCons(addr)
	c.loadTo = append(c.loadTo, depEdge{other: int32(dest), site: int32(site)})
	a.seedDelta(addr)
}

// addStore registers the Store constraint *addr = src, flushing addr's set.
func (a *Analysis) addStore(addr, src, site int) {
	addr = a.find(addr)
	c := a.ownCons(addr)
	c.storeFrom = append(c.storeFrom, depEdge{other: int32(src), site: int32(site)})
	a.seedDelta(addr)
}

// addArith registers the PtrAdd flow dest = base + unknown, flushing base's
// set.
func (a *Analysis) addArith(base, dest, site int) {
	base = a.find(base)
	c := a.ownCons(base)
	c.arithTo = append(c.arithTo, arithEdge{to: int32(dest), site: int32(site)})
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
	xs, ys := a.own(x), a.own(y)
	a.rep[y] = int32(x)
	if ys.pts != nil {
		a.ptsOf(x).UnionWith(ys.pts)
		ys.pts = nil
	}
	if ys.delta != nil {
		a.release(ys.delta)
		ys.delta = nil
	}
	// Copy lists are the longest adjacency lists; growing the longer one
	// copies fewer edges. Their order only decides propagation order.
	if len(ys.copyTo) > len(xs.copyTo) {
		if x == a.walking {
			a.walkOff += len(ys.copyTo)
		}
		xs.copyTo, ys.copyTo = ys.copyTo, xs.copyTo
	}
	xs.copyTo = append(xs.copyTo, ys.copyTo...)
	// The other lists keep their order: x's entries, then y's. A survivor
	// without a cold record takes y's whole, as an append would copy it.
	if xc, yc := xs.cold, ys.cold; xc == nil {
		xs.cold = yc
	} else if yc != nil {
		xc.gepTo = append(xc.gepTo, yc.gepTo...)
		xc.loadTo = append(xc.loadTo, yc.loadTo...)
		xc.storeFrom = append(xc.storeFrom, yc.storeFrom...)
		xc.arithTo = append(xc.arithTo, yc.arithTo...)
		xc.icalls = append(xc.icalls, yc.icalls...)
		xc.hcd = append(xc.hcd, yc.hcd...)
	}
	*ys = nodeState{}
	a.seedDelta(x)
	return true
}
