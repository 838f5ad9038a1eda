// Package pointsto implements a field-sensitive, flow- and context-
// insensitive Andersen's inclusion-based pointer analysis over KIR, following
// the constraint model of Table 1 in the paper (Addr-Of, Copy, Load, Store,
// Field-Of), with online cycle detection and collapse, positive-weight-cycle
// handling per Pearce et al., and the paper's three optimistic
// likely-invariant policies (PA, PWC, Ctx) layered on top.
//
// One Analysis run produces one points-to collection. The IGO engine
// (internal/core) solves the optimistic one and derives the fallback from
// it by restoring every invariant (Result.RestoreAll), which yields the
// baseline solve's collection.
package pointsto

import (
	"fmt"

	"repro/internal/ir"
)

// ObjKind classifies abstract objects by allocation class.
type ObjKind int

// Abstract object classes.
const (
	ObjGlobal ObjKind = iota
	ObjStack
	ObjHeap
	ObjFunc
)

func (k ObjKind) String() string {
	switch k {
	case ObjGlobal:
		return "global"
	case ObjStack:
		return "stack"
	case ObjHeap:
		return "heap"
	case ObjFunc:
		return "func"
	}
	return fmt.Sprintf("ObjKind(%d)", int(k))
}

// Object is an abstract memory object (allocation site). Field-sensitive
// objects occupy Size consecutive slot nodes starting at NodeBase; slot k
// corresponds to FlattenedFields(Type)[k].
type Object struct {
	Index    int // position in Analysis.Objects(): the object's IR number
	NodeBase int // node ID of slot 0
	Size     int // number of analysis slots
	Kind     ObjKind
	Name     string  // global/function name, or alloca variable name
	Site     int     // allocation instruction ID (0 for globals/functions)
	Fn       string  // containing function for stack/heap objects
	Type     ir.Type // nil for unknown-type heap objects
	Insens   bool    // true once the object has lost field sensitivity
}

// Label renders a stable human-readable identity for reports.
func (o *Object) Label() string {
	switch o.Kind {
	case ObjGlobal:
		return "@" + o.Name
	case ObjFunc:
		return o.Name + "()"
	case ObjStack:
		return fmt.Sprintf("%s/%s#%d", o.Fn, o.Name, o.Site)
	default:
		return fmt.Sprintf("heap@%s#%d", o.Fn, o.Site)
	}
}

type nodeKind uint8

const (
	nodeReg   nodeKind = iota // a register (top-level pointer variable)
	nodeRet                   // a function's return-value node
	nodeObj                   // one slot of an abstract object
	nodeDummy                 // per-callsite dummy node for Ctx wiring
)

// node is one vertex of the constraint graph.
type node struct {
	kind nodeKind
	fn   string // nodeReg/nodeRet: owning function
	reg  string // nodeReg: register name
	obj  int32  // nodeObj: object index
	slot int32  // nodeObj: slot within the object
}

func (a *Analysis) describeNode(id int) string {
	n := a.nodes[id]
	switch n.kind {
	case nodeReg:
		return fmt.Sprintf("%s:%s", n.fn, n.reg)
	case nodeRet:
		return fmt.Sprintf("ret(%s)", n.fn)
	case nodeObj:
		o := a.objects[n.obj]
		if o.Size == 1 || n.slot == 0 {
			return o.Label()
		}
		if o.Type != nil {
			flat := ir.FlattenedFields(o.Type)
			if int(n.slot) < len(flat) {
				return o.Label() + "." + flat[n.slot].Path
			}
		}
		return fmt.Sprintf("%s+%d", o.Label(), n.slot)
	default:
		return fmt.Sprintf("dummy%d", id)
	}
}

// find resolves the union-find representative of node x with path
// halving. A node whose parent is a root is left as it is, so on a flat
// table (flattenReps) find writes nothing.
func (a *Analysis) find(x int) int {
	for {
		p := a.rep[x]
		if int(p) == x {
			return x
		}
		g := a.rep[p]
		if g == p {
			return int(p)
		}
		a.rep[x] = g
		x = int(g)
	}
}

// newNode appends a node with an empty record, taken from the slab New
// reserved while it lasts.
func (a *Analysis) newNode(n node) int {
	id := len(a.nodes)
	a.nodes = append(a.nodes, n)
	a.rep = append(a.rep, int32(id))
	a.inWL = append(a.inWL, false)
	if k := len(a.slab); k < cap(a.slab) {
		a.slab = a.slab[:k+1]
		a.state = append(a.state, &a.slab[k])
	} else {
		a.state = append(a.state, new(nodeState))
	}
	if a.owned != nil {
		a.owned = append(a.owned, true)
	}
	return id
}

type regKey struct{ fn, reg string }

// regNode returns (creating on demand) the node for register reg of fn.
func (a *Analysis) regNode(fn, reg string) int {
	k := regKey{fn, reg}
	if id, ok := a.regNodes[k]; ok {
		return id
	}
	id := a.newNode(node{kind: nodeReg, fn: fn, reg: reg})
	a.unshareNames()
	a.regNodes[k] = id
	return id
}

// retNode returns (creating on demand) the return-value node of fn.
func (a *Analysis) retNode(fn string) int {
	if id, ok := a.retNodes[fn]; ok {
		return id
	}
	id := a.newNode(node{kind: nodeRet, fn: fn})
	a.unshareNames()
	a.retNodes[fn] = id
	return id
}

// nodeBound bounds, from counts the module already has, the registers the
// analysis gives nodes to and the nodes it holds: every register an
// instruction defines and every parameter, one return node per function,
// and every analysis slot of every object. New sizes the per-node tables,
// the record slab and the register map from it, so they are allocated once. Registers that
// get no node (constants, arithmetic, inputs) leave room for the Ctx
// policy's per-callsite dummy nodes; a graph that still outgrows the bound
// grows its tables by append.
func (a *Analysis) nodeBound() (regs, nodes int) {
	slots := 0
	for _, g := range a.mod.Globals {
		slots += a.objectSize(g.Type)
	}
	for _, f := range a.mod.Funcs {
		regs += len(f.Params)
		slots += a.objectSize(nil)
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			if in.Def() != "" {
				regs++
			}
			switch in := in.(type) {
			case *ir.Alloca:
				slots += a.objectSize(in.Ty)
			case *ir.Malloc:
				slots += a.objectSize(in.SizeOf)
			}
		})
	}
	return regs, regs + len(a.mod.Funcs) + slots
}

// objectSize returns the number of analysis slots of an object of type t:
// one for an object of unknown type.
func (a *Analysis) objectSize(t ir.Type) int {
	if t == nil {
		return 1
	}
	return a.layouts.Of(t).AnalysisSize
}

// newObject creates the abstract object with IR number idx and the given
// layout, places it at a.objects[idx], and returns it.
func (a *Analysis) newObject(idx int, kind ObjKind, name, fn string, site int, t ir.Type) *Object {
	size := a.objectSize(t)
	o := &Object{
		Index: idx,
		Kind:  kind,
		Name:  name,
		Fn:    fn,
		Site:  site,
		Type:  t,
		Size:  size,
	}
	o.NodeBase = len(a.nodes)
	for s := 0; s < size; s++ {
		a.newNode(node{kind: nodeObj, obj: int32(o.Index), slot: int32(s)})
	}
	a.objects[idx] = o
	if t == nil && kind == ObjHeap {
		// Unknown-type heap objects are modeled as a single collapsed slot:
		// any field access resolves to the base (sound, imprecise), and §6's
		// rule says the PA invariant never filters them.
		o.Insens = true
	}
	return o
}

// objOfNode returns the Object that node id (an object slot node) belongs to,
// or nil for non-object nodes.
func (a *Analysis) objOfNode(id int) *Object {
	n := a.nodes[id]
	if n.kind != nodeObj {
		return nil
	}
	return a.objects[n.obj]
}

// fieldTarget resolves Pearce-style weighted propagation: the node denoting
// slot (node's slot + off) of the same object, or -1 when the access runs off
// the object (out-of-bounds derivations are dropped, as in SVF). For
// field-insensitive objects the base node stands for every slot.
//
// The returned id is the CONCRETE object-slot node (never a union-find
// representative): points-to sets always hold concrete object identities so
// cycle collapse cannot conflate distinct objects in reported results.
// Content propagation still flows through representatives (addCopy/unionPts
// resolve reps internally).
func (a *Analysis) fieldTarget(objNode, off int) int {
	n := a.nodes[objNode]
	if n.kind != nodeObj {
		return -1
	}
	o := a.objects[n.obj]
	if o.Insens {
		return o.NodeBase
	}
	t := int(n.slot) + off
	if t < 0 || t >= o.Size {
		return -1
	}
	return o.NodeBase + t
}

// makeFieldInsensitive merges every slot node of o into its base node.
func (a *Analysis) makeFieldInsensitive(o *Object) {
	if o.Insens {
		return
	}
	a.unshareObjects()
	o = a.objects[o.Index]
	o.Insens = true
	a.stats.FieldCollapses++
	base := o.NodeBase
	for s := 1; s < o.Size; s++ {
		a.union(base, base+s)
	}
	a.reseedSlotHolders(o)
}

// reseedSlotHolders reschedules every node whose points-to set already holds
// a slot of o. Collapsing changes how those pointees resolve — fieldTarget
// now maps every slot to the base, and the slot reps were just merged — so
// constraints that consumed them before the collapse must re-derive through
// the new resolution. Collapses are rare (FieldCollapses stat), so the full
// node scan is the right trade; without it, a node whose pending delta was
// already consumed never re-derives through the collapsed object, and the
// fixed point misses edges (the differential oracle's delta legs catch it).
func (a *Analysis) reseedSlotHolders(o *Object) {
	if o.Size <= 1 {
		return
	}
	for n := range a.nodes {
		p := a.state[n].pts
		if a.find(n) != n || p == nil {
			continue
		}
		for s := 0; s < o.Size; s++ {
			if p.Has(o.NodeBase + s) {
				a.seedDelta(n)
				break
			}
		}
	}
}
