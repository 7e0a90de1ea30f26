package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The scratchlife analyzer tracks epoch-scoped scratch memory — the
// arena types and fields annotated //nessa:arena and the per-worker
// slots of parallel.WorkerLocal — flow-sensitively through each
// function and flags the three escape shapes that would let scratch
// outlive its epoch:
//
//   - return: a function returning scratch-backed memory
//   - store: scratch stored into a field of a non-scratch value or a
//     package-level variable
//   - send: scratch sent on a channel
//
// Taint starts at reads of //nessa:arena fields, at parameters of
// //nessa:arena types, and at WorkerLocal.Get results. It propagates
// through assignments, slicing, dereference, address-of, composite
// literals, and calls that receive a tainted argument and return a
// pointer-bearing type. Scalar results (float32, int, bool) never carry
// taint, so copying *data out of* scratch is always clean, as are
// stores into a base that is itself scratch (arena-to-arena).
//
// //nessa:scratch-ok in a function's doc comment waives every return
// in that function (the documented ownership-transfer / bounded-view
// idiom); on a flagged line (or the line above) it waives that one
// site.

// ScratchLifeAnalyzer returns the scratchlife analyzer.
func ScratchLifeAnalyzer() *Analyzer {
	return &Analyzer{Name: "scratchlife", Run: runScratchLife}
}

func runScratchLife(p *Pass) {
	ctx := &scratchCtx{
		p:           p,
		arenaTypes:  make(map[*types.TypeName]bool),
		arenaFields: make(map[types.Object]bool),
	}
	ctx.collectArenas()

	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st := make(taintSet)
			for _, obj := range funcParams(p.Pkg.Info, fd) {
				if ctx.isArenaType(obj.Type()) {
					st[obj] = true
				}
			}
			ctx.analyzeBody(fd.Body, st, HasDirective(fd.Doc, DirScratchOK))
		}
	}
}

type scratchCtx struct {
	p           *Pass
	arenaTypes  map[*types.TypeName]bool
	arenaFields map[types.Object]bool
}

// collectArenas indexes the //nessa:arena annotations: named types and
// struct fields whose declarations carry the directive.
func (c *scratchCtx) collectArenas() {
	info := c.p.Pkg.Info
	for _, f := range c.p.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if HasDirective(gd.Doc, DirArena) || HasDirective(ts.Doc, DirArena) || HasDirective(ts.Comment, DirArena) {
					if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
						c.arenaTypes[tn] = true
					}
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if !HasDirective(field.Doc, DirArena) && !HasDirective(field.Comment, DirArena) {
						continue
					}
					for _, name := range field.Names {
						if obj := info.Defs[name]; obj != nil {
							c.arenaFields[obj] = true
						}
					}
				}
			}
		}
	}
}

// isArenaType reports whether t is (a pointer to) an annotated arena
// type.
func (c *scratchCtx) isArenaType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && c.arenaTypes[named.Obj()]
}

// ---------------------------------------------------------------------
// Per-function flow analysis
// ---------------------------------------------------------------------

// taintSet holds the locals bound to scratch-backed memory.
type taintSet map[types.Object]bool

func (s taintSet) clone() taintSet {
	out := make(taintSet, len(s))
	for o := range s {
		out[o] = true
	}
	return out
}

func (s taintSet) merge(src taintSet) bool {
	changed := false
	for o := range src {
		if !s[o] {
			s[o] = true
			changed = true
		}
	}
	return changed
}

// analyzeBody runs the taint dataflow over one function (or function
// literal) body and reports escapes. docWaived marks a body whose doc
// comment carries //nessa:scratch-ok, waiving return findings
// wholesale.
func (c *scratchCtx) analyzeBody(body *ast.BlockStmt, entry taintSet, docWaived bool) {
	g := BuildCFG(body)
	spec := FlowSpec[taintSet]{
		Boundary: entry.clone,
		Bottom:   func() taintSet { return make(taintSet) },
		Copy:     taintSet.clone,
		Merge:    taintSet.merge,
		Transfer: func(b *Block, in taintSet) taintSet {
			for _, n := range b.Nodes {
				c.applyScratch(n, in, nil)
			}
			return in
		},
	}
	in := Solve(g, spec)
	rep := &reportCtx{docWaived: docWaived}
	for _, b := range g.Blocks {
		state := in[b].clone()
		for _, n := range b.Nodes {
			c.applyScratch(n, state, rep)
		}
	}
}

type reportCtx struct {
	docWaived bool
}

// applyScratch interprets one CFG node: updates taint state and, when
// rep is non-nil (the replay pass), reports escapes. Function literals
// are analyzed recursively at their occurrence with a snapshot of the
// current state.
func (c *scratchCtx) applyScratch(n ast.Node, st taintSet, rep *reportCtx) {
	info := c.p.Pkg.Info

	if rep != nil {
		ast.Inspect(n, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok {
				sub := st.clone()
				for _, obj := range litParams(info, lit) {
					if c.isArenaType(obj.Type()) {
						sub[obj] = true
					}
				}
				c.analyzeBody(lit.Body, sub, false)
				return false
			}
			return true
		})
	}

	switch n := n.(type) {
	case *ast.AssignStmt:
		c.applyAssign(n, st, rep)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							obj := info.Defs[name]
							if obj != nil && c.exprTainted(vs.Values[i], st) && pointerish(obj.Type()) {
								st[obj] = true
							}
						}
					}
				}
			}
		}
	case *ast.RangeStmt:
		if n.Tok == token.DEFINE && n.Value != nil && c.exprTainted(n.X, st) {
			if id, ok := unparen(n.Value).(*ast.Ident); ok && id.Name != "_" {
				if obj := info.Defs[id]; obj != nil && pointerish(obj.Type()) {
					st[obj] = true
				}
			}
		}
	case *ast.ReturnStmt:
		if rep != nil {
			for _, res := range n.Results {
				if !c.exprTainted(res, st) {
					continue
				}
				if rep.docWaived || c.p.ExemptAt(res.Pos(), DirScratchOK) || c.p.ExemptAt(n.Pos(), DirScratchOK) {
					continue
				}
				c.p.Reportf(res.Pos(), "returns pool/arena-backed scratch memory; copy it out or annotate the function //nessa:scratch-ok")
			}
		}
	case *ast.SendStmt:
		if rep != nil && c.exprTainted(n.Value, st) {
			if !c.p.ExemptAt(n.Pos(), DirScratchOK) {
				c.p.Reportf(n.Value.Pos(), "scratch memory escapes through a channel send")
			}
		}
	}
}

// applyAssign handles taint propagation and store-escape reporting for
// one assignment.
func (c *scratchCtx) applyAssign(as *ast.AssignStmt, st taintSet, rep *reportCtx) {
	info := c.p.Pkg.Info
	multi := len(as.Lhs) > 1 && len(as.Rhs) == 1
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if multi {
			rhs = as.Rhs[0]
		} else if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		}
		if rhs == nil {
			continue
		}
		rhsTainted := c.exprTainted(rhs, st)
		switch lhs := unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := objOf(info, lhs)
			if obj == nil {
				continue
			}
			if isPackageLevel(obj) {
				if rep != nil && rhsTainted && !c.p.ExemptAt(as.Pos(), DirScratchOK) {
					c.p.Reportf(lhs.Pos(), "scratch memory stored in package-level variable %s outlives its epoch", lhs.Name)
				}
				continue
			}
			if rhsTainted && pointerish(obj.Type()) {
				st[obj] = true
			} else {
				// Whole-variable overwrite with clean data.
				delete(st, obj)
			}
		case *ast.SelectorExpr:
			if rep != nil && rhsTainted && !c.exprTainted(lhs.X, st) && !c.arenaFields[info.Uses[lhs.Sel]] &&
				!c.p.ExemptAt(as.Pos(), DirScratchOK) {
				c.p.Reportf(lhs.Pos(), "scratch memory stored in field %s of a non-scratch value outlives its epoch", lhs.Sel.Name)
			}
		case *ast.IndexExpr:
			if rep != nil && rhsTainted && !c.exprTainted(lhs.X, st) {
				if root := rootObject(info, lhs.X); root != nil && isPackageLevel(root) &&
					!c.p.ExemptAt(as.Pos(), DirScratchOK) {
					c.p.Reportf(lhs.Pos(), "scratch memory stored in package-level container outlives its epoch")
				}
			}
		}
	}
}

// exprTainted reports whether e evaluates to scratch-backed memory
// under state st.
func (c *scratchCtx) exprTainted(e ast.Expr, st taintSet) bool {
	info := c.p.Pkg.Info
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := objOf(info, e)
		return obj != nil && st[obj]
	case *ast.SelectorExpr:
		if c.arenaFields[info.Uses[e.Sel]] {
			return true
		}
		if c.isArenaType(info.TypeOf(e)) {
			return true
		}
		return c.exprTainted(e.X, st) && pointerish(info.TypeOf(e))
	case *ast.IndexExpr:
		return c.exprTainted(e.X, st) && pointerish(info.TypeOf(e))
	case *ast.SliceExpr:
		return c.exprTainted(e.X, st)
	case *ast.StarExpr:
		return c.exprTainted(e.X, st)
	case *ast.UnaryExpr:
		return e.Op == token.AND && c.exprTainted(e.X, st)
	case *ast.TypeAssertExpr:
		return c.exprTainted(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c.exprTainted(el, st) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if isWorkerLocalGet(info, e) {
			return true
		}
		if !pointerish(info.TypeOf(e)) {
			return false
		}
		if sel, ok := unparen(e.Fun).(*ast.SelectorExpr); ok && c.exprTainted(sel.X, st) {
			return true
		}
		for _, arg := range e.Args {
			if c.exprTainted(arg, st) {
				return true
			}
		}
		return false
	}
	return false
}

// rootObject returns the variable at the root of a chain of deref /
// address-of / index / slice / paren / type-assert wrappers, or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := objOf(info, e)
		if _, ok := obj.(*types.Var); ok {
			return obj
		}
	case *ast.StarExpr:
		return rootObject(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return rootObject(info, e.X)
		}
	case *ast.IndexExpr:
		return rootObject(info, e.X)
	case *ast.SliceExpr:
		return rootObject(info, e.X)
	case *ast.TypeAssertExpr:
		return rootObject(info, e.X)
	}
	return nil
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

// isWorkerLocalGet matches (*WorkerLocal[T]).Get — the worker-scoped
// arena accessor (parallel.WorkerLocal in the real tree). A slot is
// reused by the next loop that runs on the same worker, so memory
// reached through Get carries the same epoch-scoped lifetime as an
// arena field. Matching by receiver type name keeps the rule reachable
// from self-contained fixtures.
func isWorkerLocalGet(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "WorkerLocal"
}

// pointerish reports whether values of type t can carry a reference to
// scratch backing memory. Scalars and strings cannot.
func pointerish(t types.Type) bool {
	return pointerishRec(t, make(map[types.Type]bool))
}

func pointerishRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerishRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return pointerishRec(u.Elem(), seen)
	}
	return false
}

// isPackageLevel reports whether obj is a package-scope variable.
func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// funcParams returns the parameter and receiver objects of a declared
// function.
func funcParams(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					out = append(out, obj)
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	return out
}

// litParams returns the parameter objects of a function literal.
func litParams(info *types.Info, lit *ast.FuncLit) []types.Object {
	var out []types.Object
	if lit.Type.Params == nil {
		return out
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}
