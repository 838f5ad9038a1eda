package ir

// PropagateHeapTypes implements the paper's §6 heap-type detection: sizeof
// expressions are lowered to constants that retain their type as metadata
// (Const.SizeOfType), and an interprocedural pass propagates that metadata
// to dynamic allocation sites. A `malloc(n)` whose size derives from a
// sizeof(T) constant — directly, through copies, or through a parameter
// whose every direct callsite passes sizeof(T) — is typed as T. If the type
// cannot be determined (mixed types, unknown flows, address-taken wrappers),
// the site stays untyped and the PA invariant never filters its objects
// (§6's soundness rule).
//
// Call after module construction (before or after Finalize); it only fills
// Malloc.SizeOf fields in place.
func PropagateHeapTypes(m *Module) {
	p := &heapTypeProp{
		m:    m,
		defs: map[string]map[string]Instr{},
		memo: map[string]Type{},
	}
	for _, f := range m.Funcs {
		f.Instrs(func(_ *Block, in Instr) {
			mal, ok := in.(*Malloc)
			if !ok || mal.SizeOf != nil || mal.Size == "" {
				return
			}
			if t := p.resolve(f.Name, mal.Size, 0); t != nil {
				mal.SizeOf = t
			}
		})
	}
}

type callRef struct {
	caller string
	call   *Call
}

type heapTypeProp struct {
	m     *Module
	defs  map[string]map[string]Instr // per function, built on first use
	sites map[string][]callRef        // direct callsites per callee, built on first use
	memo  map[string]Type             // nil: unresolved, or being resolved
}

// resolve walks the definition chain of (fn, reg) toward a sizeof-tagged
// constant, crossing at most three wrapper levels through parameters.
func (p *heapTypeProp) resolve(fn, reg string, depth int) Type {
	if depth > 3 {
		return nil
	}
	key := fn + "\x00" + reg
	if t, ok := p.memo[key]; ok {
		return t
	}
	// Break recursion cycles conservatively.
	p.memo[key] = nil
	t := p.resolveUncached(fn, reg, depth)
	p.memo[key] = t
	return t
}

func (p *heapTypeProp) resolveUncached(fn, reg string, depth int) Type {
	f := p.m.Func(fn)
	if f == nil {
		return nil
	}
	for i, param := range f.Params {
		if param != reg {
			continue
		}
		// Parameter: every direct callsite must pass the same sizeof type.
		// Address-taken functions may also be called indirectly, with
		// arguments this pass cannot see — stay unknown.
		if f.AddressTaken {
			return nil
		}
		sites := p.callSites(fn)
		if len(sites) == 0 {
			return nil
		}
		var agreed Type
		for _, s := range sites {
			if i >= len(s.call.Args) {
				return nil
			}
			t := p.resolve(s.caller, s.call.Args[i], depth+1)
			if t == nil {
				return nil
			}
			if agreed == nil {
				agreed = t
			} else if agreed != t {
				return nil
			}
		}
		return agreed
	}
	switch d := p.defsOf(f)[reg].(type) {
	case *Const:
		return d.SizeOfType
	case *Copy:
		return p.resolve(fn, d.Src, depth)
	}
	return nil
}

// callSites returns fn's direct callsites, indexing every call of the
// module the first time a resolution reaches a parameter.
func (p *heapTypeProp) callSites(fn string) []callRef {
	if p.sites == nil {
		p.sites = map[string][]callRef{}
		for _, f := range p.m.Funcs {
			f.Instrs(func(_ *Block, in Instr) {
				if c, ok := in.(*Call); ok {
					p.sites[c.Callee] = append(p.sites[c.Callee], callRef{caller: f.Name, call: c})
				}
			})
		}
	}
	return p.sites[fn]
}

// defsOf returns f's register -> defining instruction map, building it the
// first time a resolution walks into f. Where a register is defined more
// than once, the last definition in block order wins.
func (p *heapTypeProp) defsOf(f *Function) map[string]Instr {
	defs, ok := p.defs[f.Name]
	if !ok {
		defs = map[string]Instr{}
		f.Instrs(func(_ *Block, in Instr) {
			if d := in.Def(); d != "" {
				defs[d] = in
			}
		})
		p.defs[f.Name] = defs
	}
	return defs
}
