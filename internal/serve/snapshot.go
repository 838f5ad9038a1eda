package serve

// The result snapshot is the load-bearing abstraction of the persistence
// layer: instead of answering queries from the live *core.System (whose
// solver state — constraint graphs, union-find, points-to bitsets — is
// neither serializable nor worth serializing), every solved analysis is
// projected ONCE into a resultSnapshot holding the complete query surface
// any endpoint can ever ask: the /analyze summary, every non-empty
// points-to set under both views, every CFI site's target sets, and the
// invariant inventory. All four analysis handlers answer exclusively from
// snapshots, so a snapshot warm-loaded from disk after a restart is
// byte-identical on the wire to the freshly solved one it was projected
// from — there is only one rendering path.

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cfi"
	"repro/internal/invariant"
	"repro/internal/pointsto"
)

// recordFormat versions the persisted record's JSON shape (persistRecord
// and the snapshot inside it). Change it with any change to either shape:
// warm-load deletes and re-solves a record of any other format rather than
// decoding it into the wrong shape. Format 1 was the unversioned shape that
// stored a label list per pointer per view.
const recordFormat = 2

// resultSnapshot is the full query surface of one solved (program, config)
// pair as plain data. It is the payload of a persisted record, so changing
// its JSON shape is a disk-format change: bump recordFormat alongside.
//
// Points-to sets are stored once each, whichever view and however many
// pointers hold them: Labels is the object-label table, Sets the table of
// distinct canonical label sequences (indexes into Labels; set 0 is always
// the empty set), and each Regs entry names its two views' sets by index.
type resultSnapshot struct {
	Objects          int               `json:"objects"`
	ConstraintNodes  int               `json:"constraint_nodes"`
	SolverIterations int               `json:"solver_iterations"`
	MonitorSites     int               `json:"monitor_sites"`
	ICallSites       []int             `json:"icall_sites"`
	Labels           []string          `json:"labels"`
	Sets             [][]int           `json:"sets"`
	Regs             []regSnapshot     `json:"regs"`
	CFISites         []cfiSite         `json:"cfi_sites"`
	Invariants       []invariantRecord `json:"invariants"`
}

// regSnapshot is one top-level pointer's points-to sets under both memory
// views, as indexes into resultSnapshot.Sets. Reg "" is fn's return-value
// node, mirroring the wire query. Only pointers with a non-empty set in at
// least one view are listed.
type regSnapshot struct {
	Fn         string `json:"fn"`
	Reg        string `json:"reg,omitempty"`
	Optimistic int    `json:"optimistic"`
	Fallback   int    `json:"fallback"`
}

// check verifies that every index a snapshot holds is in range, that set 0
// is empty, and that pointers and CFI sites are sorted and unique, so a
// served pointer can never render a missing set as empty and a lookup by
// binary search can never miss an entry the record holds.
func (snap *resultSnapshot) check() error {
	if len(snap.Sets) == 0 || len(snap.Sets[0]) != 0 {
		return errors.New("set 0 is not the empty set")
	}
	for i, set := range snap.Sets {
		for _, id := range set {
			if id < 0 || id >= len(snap.Labels) {
				return fmt.Errorf("set %d names label %d of %d", i, id, len(snap.Labels))
			}
		}
	}
	for i, rg := range snap.Regs {
		for _, id := range []int{rg.Optimistic, rg.Fallback} {
			if id < 0 || id >= len(snap.Sets) {
				return fmt.Errorf("pointer %s:%s names set %d of %d", rg.Fn, rg.Reg, id, len(snap.Sets))
			}
		}
		if i > 0 && comparePtr(snap.Regs[i-1], rg.Fn, rg.Reg) >= 0 {
			return fmt.Errorf("pointer %s:%s is out of order or repeated", rg.Fn, rg.Reg)
		}
	}
	for i := 1; i < len(snap.CFISites); i++ {
		if snap.CFISites[i-1].Site >= snap.CFISites[i].Site {
			return fmt.Errorf("CFI site %d is out of order or repeated", snap.CFISites[i].Site)
		}
	}
	return nil
}

// comparePtr orders a pointer entry against (fn, reg) as project emits
// them: by function, then register.
func comparePtr(rg regSnapshot, fn, reg string) int {
	return cmp.Or(strings.Compare(rg.Fn, fn), strings.Compare(rg.Reg, reg))
}

// servedResult is a checked snapshot plus each of its sets rendered once as
// a label list (never serialized). Pointers and CFI sites are found by
// binary search in the snapshot's own sorted lists.
type servedResult struct {
	snap *resultSnapshot
	sets [][]string // snap.Sets as labels
}

func newServedResult(snap *resultSnapshot) *servedResult {
	sets := make([][]string, len(snap.Sets))
	for i, ids := range snap.Sets {
		labels := make([]string, len(ids))
		for k, id := range ids {
			labels[k] = snap.Labels[id]
		}
		sets[i] = labels
	}
	return &servedResult{snap: snap, sets: sets}
}

// pointsTo returns both views' label sets for (fn, reg). Unknown pointers
// and pointers with empty sets render identically (empty, non-nil — the
// wire's `[]`), exactly as querying the live result did.
func (r *servedResult) pointsTo(fn, reg string) (optimistic, fallback []string) {
	i, ok := slices.BinarySearchFunc(r.snap.Regs, fn, func(rg regSnapshot, fn string) int {
		return comparePtr(rg, fn, reg)
	})
	if !ok {
		return []string{}, []string{}
	}
	rg := r.snap.Regs[i]
	return r.sets[rg.Optimistic], r.sets[rg.Fallback]
}

// site returns the CFI snapshot of one callsite (nil = no indirect call
// there, the handler's 400).
func (r *servedResult) site(id int) *cfiSite {
	i, ok := slices.BinarySearchFunc(r.snap.CFISites, id, func(s cfiSite, id int) int { return cmp.Compare(s.Site, id) })
	if !ok {
		return nil
	}
	return &r.snap.CFISites[i]
}

// abortIfDone returns the typed abort of a request whose context ended
// during stage. Projection and the record write run under the solve's
// deadline, so overrunning it there is the same 503 as in the solver.
func abortIfDone(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		return &pointsto.AbortError{Reason: "context done during " + stage, Cause: err}
	}
	return nil
}

// project renders a solved optimistic view and its fallback, two analyses
// of one module, into a snapshot. Sets are read at the id level through the
// Result's canonical AppendSet, so inline and bit-vector sets project
// identically, and each solver representative is interned once per view:
// the cost follows the number of distinct sets, not the sum of their sizes.
// Table indexes are assigned in first-use order along the sorted pointer
// list, so two solves of one program marshal to the same bytes. ctx is
// polled every 256 pointers.
func project(ctx context.Context, opt, fb *pointsto.Result) (*resultSnapshot, error) {
	snap := &resultSnapshot{
		Objects:          len(opt.Objects()),
		ConstraintNodes:  opt.NodeCount(),
		SolverIterations: opt.Stats().Iterations,
		MonitorSites:     opt.Stats().MonitorSites,
		ICallSites:       opt.ICallSites(),
		Sets:             [][]int{{}},
		Invariants:       []invariantRecord{},
	}
	for _, rec := range opt.Invariants() {
		snap.Invariants = append(snap.Invariants, invariantRecord{
			Kind: rec.Kind.String(), Site: rec.Site, Desc: rec.Desc,
		})
	}
	t := newSetTable(snap, opt.Objects())
	optSet, optPtrs := t.view(opt), opt.PointerReps()
	fbSet, fbPtrs := optSet, optPtrs // the baseline's optimistic view is its fallback
	if fb != opt {
		fbSet, fbPtrs = t.view(fb), fb.PointerRepsAlong(optPtrs)
	}
	// Merge the two sorted pointer lists: the populations usually agree,
	// but only usually. Nearly every pointer has a non-empty set.
	snap.Regs = make([]regSnapshot, 0, max(len(optPtrs), len(fbPtrs)))
	for i, j, n := 0, 0, 0; i < len(optPtrs) || j < len(fbPtrs); n++ {
		if n&255 == 0 {
			if err := abortIfDone(ctx, "projection"); err != nil {
				return nil, err
			}
		}
		var rg regSnapshot
		switch {
		case j == len(fbPtrs) || i < len(optPtrs) && optPtrs[i].Less(fbPtrs[j].PtrRef):
			rg = regSnapshot{Fn: optPtrs[i].Fn, Reg: optPtrs[i].Reg, Optimistic: optSet(optPtrs[i].Rep)}
			i++
		case i == len(optPtrs) || fbPtrs[j].Less(optPtrs[i].PtrRef):
			rg = regSnapshot{Fn: fbPtrs[j].Fn, Reg: fbPtrs[j].Reg, Fallback: fbSet(fbPtrs[j].Rep)}
			j++
		default:
			rg = regSnapshot{Fn: optPtrs[i].Fn, Reg: optPtrs[i].Reg,
				Optimistic: optSet(optPtrs[i].Rep), Fallback: fbSet(fbPtrs[j].Rep)}
			i, j = i+1, j+1
		}
		if rg.Optimistic != 0 || rg.Fallback != 0 {
			snap.Regs = append(snap.Regs, rg)
		}
	}
	if len(snap.Regs) == 0 {
		snap.Regs = nil // marshals as null, as a snapshot without pointers always has
	}
	po, pf := cfi.PolicyFrom(opt), cfi.PolicyFrom(fb)
	for _, site := range po.Sites {
		snap.CFISites = append(snap.CFISites, cfiSite{
			Site:       site,
			Optimistic: nonNil(po.Targets[site]),
			Fallback:   nonNil(pf.Targets[site]),
		})
	}
	return snap, nil
}

// setTable interns a snapshot's labels and sets by solver ids: a label is
// rendered once per object slot, and a set is found by its label indexes.
// Both views share the object index space, so one table serves both.
type setTable struct {
	snap     *resultSnapshot
	slotBase []int32            // object index → its slot 0's position in labels
	labels   []int32            // object slot → 1 + its index in snap.Labels; 0 = not yet rendered
	sets     map[uint64]int32   // hash of a set's label indexes → the last set in snap.Sets with it
	next     []int32            // set index → the previous set with the same hash (0 = none)
	keys     []pointsto.ObjSlot // scratch: one set's keys
	ids      []int              // scratch: one set's label indexes
}

func newSetTable(snap *resultSnapshot, objs []*pointsto.Object) *setTable {
	t := &setTable{snap: snap, slotBase: make([]int32, len(objs)), sets: map[uint64]int32{}, next: []int32{0}}
	slots := 0
	for i, o := range objs {
		t.slotBase[i] = int32(slots)
		slots += o.Size
	}
	t.labels = make([]int32, slots)
	return t
}

// view returns the set-index function of one view, memoized on the solver
// representative: a representative's set is interned on first use only.
func (t *setTable) view(r *pointsto.Result) func(rep int) int {
	memo := make([]int32, r.NodeCount()) // representative → 1 + set index; 0 = not yet interned
	return func(rep int) int {
		if id := memo[rep]; id != 0 {
			return int(id - 1)
		}
		id := t.intern(r, rep)
		memo[rep] = int32(id + 1)
		return id
	}
}

// intern returns the index of rep's canonical set in the set table, adding
// the set (and any new labels) on first sight.
func (t *setTable) intern(r *pointsto.Result, rep int) int {
	t.keys = r.AppendSet(t.keys[:0], rep)
	if len(t.keys) == 0 {
		return 0
	}
	ids, h := t.ids[:0], uint64(14695981039346656037) // FNV-1a over the label indexes
	for _, k := range t.keys {
		id := t.label(r, k)
		ids = append(ids, id)
		h = (h ^ uint64(id)) * 1099511628211
	}
	t.ids = ids
	for s := t.sets[h]; s != 0; s = t.next[s] {
		if slices.Equal(t.snap.Sets[s], ids) {
			return int(s)
		}
	}
	s := len(t.snap.Sets)
	t.snap.Sets = append(t.snap.Sets, slices.Clone(ids))
	t.next = append(t.next, t.sets[h])
	t.sets[h] = int32(s)
	return s
}

// label returns the index of k's label in snap.Labels, rendering it on the
// first use of its object slot.
func (t *setTable) label(r *pointsto.Result, k pointsto.ObjSlot) int {
	pos := t.slotBase[k.Obj] + k.Slot
	if id := t.labels[pos]; id != 0 {
		return int(id - 1)
	}
	t.snap.Labels = append(t.snap.Labels, pointsto.ObjRef{Obj: r.Objects()[k.Obj], Slot: int(k.Slot)}.String())
	t.labels[pos] = int32(len(t.snap.Labels))
	return len(t.snap.Labels) - 1
}

// persistRecord is the JSON payload a stored record frames: its format, the
// program source (so a warm-loaded program can compile and solve further
// configs), the resolved configuration name, and the snapshot. Source and
// config are deliberately redundant with the record key — warm-load
// cross-checks both, and a mismatch (a frame that verifies but describes a
// different program) is quarantined exactly like a checksum failure.
type persistRecord struct {
	Format   int             `json:"format"`
	Source   string          `json:"source"`
	Config   string          `json:"config"`
	Snapshot *resultSnapshot `json:"snapshot"`
}

// persistKey renders (content hash, config name) as its record key:
// <sha256-hex>.<config>.
func persistKey(hash, cfg string) string { return hash + "." + cfg }

// splitPersistKey is persistKey's inverse; ok is false for keys the daemon
// did not write (stray files in the store directory).
func splitPersistKey(key string) (hash, cfg string, ok bool) {
	const hashLen = sha256.Size * 2
	if len(key) < hashLen+2 || key[hashLen] != '.' {
		return "", "", false
	}
	hash, cfg = key[:hashLen], key[hashLen+1:]
	if _, err := hex.DecodeString(hash); err != nil || !knownConfigName(cfg) {
		return "", "", false
	}
	return hash, cfg, true
}

// knownConfigName reports whether name is a resolved invariant-configuration
// label (the config half of a record key): one that invariant.ParseConfig
// maps back to itself through Config.Name.
func knownConfigName(name string) bool {
	cfg, err := invariant.ParseConfig(name)
	return err == nil && cfg.Name() == name
}
