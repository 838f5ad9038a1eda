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
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"repro/internal/cfi"
	"repro/internal/invariant"
	"repro/internal/pointsto"
)

// resultSnapshot is the full query surface of one solved (program, config)
// pair as plain data. It is the payload of a persisted record, so changing
// its JSON shape is a disk-format change: bump persistFormat alongside.
type resultSnapshot struct {
	Objects          int               `json:"objects"`
	ConstraintNodes  int               `json:"constraint_nodes"`
	SolverIterations int               `json:"solver_iterations"`
	MonitorSites     int               `json:"monitor_sites"`
	ICallSites       []int             `json:"icall_sites"`
	Regs             []regSnapshot     `json:"regs"`
	CFISites         []cfiSite         `json:"cfi_sites"`
	Invariants       []invariantRecord `json:"invariants"`
}

// regSnapshot is one top-level pointer's canonical points-to sets under both
// memory views. Reg "" is fn's return-value node, mirroring the wire query.
type regSnapshot struct {
	Fn         string   `json:"fn"`
	Reg        string   `json:"reg,omitempty"`
	Optimistic []string `json:"optimistic"`
	Fallback   []string `json:"fallback"`
}

// servedResult is a snapshot plus the lookup indexes the handlers use; the
// indexes are rebuilt on construction (never serialized).
type servedResult struct {
	snap  *resultSnapshot
	regs  map[PtrKeyLite]*regSnapshot
	sites map[int]*cfiSite
}

// PtrKeyLite keys the register index: (function, register), "" = return.
type PtrKeyLite struct{ Fn, Reg string }

func newServedResult(snap *resultSnapshot) *servedResult {
	r := &servedResult{
		snap:  snap,
		regs:  make(map[PtrKeyLite]*regSnapshot, len(snap.Regs)),
		sites: make(map[int]*cfiSite, len(snap.CFISites)),
	}
	for i := range snap.Regs {
		rg := &snap.Regs[i]
		r.regs[PtrKeyLite{rg.Fn, rg.Reg}] = rg
	}
	for i := range snap.CFISites {
		site := &snap.CFISites[i]
		r.sites[site.Site] = site
	}
	return r
}

// pointsTo returns both views' label sets for (fn, reg). Unknown pointers
// and pointers with empty sets render identically (empty, non-nil — the
// wire's `[]`), exactly as querying the live result did.
func (r *servedResult) pointsTo(fn, reg string) (optimistic, fallback []string) {
	if rg := r.regs[PtrKeyLite{fn, reg}]; rg != nil {
		return nonNil(rg.Optimistic), nonNil(rg.Fallback)
	}
	return []string{}, []string{}
}

// site returns the CFI snapshot of one callsite (nil = no indirect call
// there, the handler's 400).
func (r *servedResult) site(id int) *cfiSite { return r.sites[id] }

// project renders a solved optimistic view and its fallback into a
// snapshot. Everything is read through the Result's canonical accessors,
// so inline and bit-vector sets, and every solver strategy that reaches
// the same fixpoint, project identically.
func project(opt, fb *pointsto.Result) *resultSnapshot {
	snap := &resultSnapshot{
		Objects:          len(opt.Objects()),
		ConstraintNodes:  opt.NodeCount(),
		SolverIterations: opt.Stats().Iterations,
		MonitorSites:     opt.Stats().MonitorSites,
		ICallSites:       opt.ICallSites(),
		Invariants:       []invariantRecord{},
	}
	for _, rec := range opt.Invariants() {
		snap.Invariants = append(snap.Invariants, invariantRecord{
			Kind: rec.Kind.String(), Site: rec.Site, Desc: rec.Desc,
		})
	}
	for _, p := range unionPointers(opt, fb) {
		snap.Regs = append(snap.Regs, regSnapshot{
			Fn:         p.Fn,
			Reg:        p.Reg,
			Optimistic: labelsOf(refsOf(opt, p)),
			Fallback:   labelsOf(refsOf(fb, p)),
		})
	}
	po, pf := cfi.PolicyFrom(opt), cfi.PolicyFrom(fb)
	for _, site := range po.Sites {
		snap.CFISites = append(snap.CFISites, cfiSite{
			Site:       site,
			Optimistic: nonNil(po.Targets[site]),
			Fallback:   nonNil(pf.Targets[site]),
		})
	}
	return snap
}

// unionPointers merges both views' non-empty top-level pointers (the
// optimistic population is usually a subset, but only usually), sorted.
func unionPointers(opt, fb *pointsto.Result) []pointsto.PtrRef {
	seen := map[pointsto.PtrRef]bool{}
	var out []pointsto.PtrRef
	for _, view := range []*pointsto.Result{opt, fb} {
		for _, p := range view.TopLevelPointers() {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Reg < out[j].Reg
	})
	return out
}

func refsOf(r *pointsto.Result, p pointsto.PtrRef) []pointsto.ObjRef {
	if p.Reg == "" {
		return r.ReturnPointsTo(p.Fn)
	}
	return r.PointsTo(p.Fn, p.Reg)
}

func labelsOf(refs []pointsto.ObjRef) []string {
	out := make([]string, 0, len(refs))
	for _, ref := range refs {
		out = append(out, ref.String())
	}
	return out
}

// persistRecord is the JSON payload a stored record frames: the program
// source (so a warm-loaded program can compile and solve further configs),
// the resolved configuration name, and the snapshot. Source and config are
// deliberately redundant with the record key — warm-load cross-checks both,
// and a mismatch (a frame that verifies but describes a different program)
// is quarantined exactly like a checksum failure.
type persistRecord struct {
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
