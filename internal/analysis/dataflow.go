package analysis

import (
	"go/ast"
	"go/types"
)

// objOf resolves an identifier to its object via Uses or Defs (the
// *types.Info counterpart of objectOf, for code that has no Pass).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// Iterative forward dataflow over the CFG of one function: the generic
// worklist solver, and reaching definitions built on it. The
// concurrency analyzer's lock-state lattice and scratchlife's taint
// state reuse the solver.

// FlowSpec describes one forward dataflow problem over states of type
// S. Merge joins src into dst and reports whether dst changed;
// Transfer maps a block's in-state (its own copy) to its out-state.
type FlowSpec[S any] struct {
	Boundary func() S // state entering Entry
	Bottom   func() S // initial state elsewhere
	Copy     func(S) S
	Merge    func(dst, src S) bool
	Transfer func(b *Block, in S) S
}

// Solve runs the worklist algorithm to fixpoint and returns the
// in-state of every block (state before the block executes).
func Solve[S any](g *CFG, spec FlowSpec[S]) map[*Block]S {
	in := make(map[*Block]S, len(g.Blocks))
	out := make(map[*Block]S, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = spec.Bottom()
		out[b] = spec.Bottom()
	}
	in[g.Entry] = spec.Boundary()

	work := make([]*Block, len(g.Blocks))
	copy(work, g.Blocks)
	inWork := make([]bool, len(g.Blocks))
	for i := range inWork {
		inWork[i] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		state := in[b]
		for _, p := range b.Preds {
			spec.Merge(state, out[p])
		}
		in[b] = state
		newOut := spec.Transfer(b, spec.Copy(state))
		if spec.Merge(out[b], newOut) {
			for _, s := range b.Succs {
				if !inWork[s.Index] {
					inWork[s.Index] = true
					work = append(work, s)
				}
			}
		}
	}
	return in
}

// ---------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------

// DefSite is one definition of a variable: the node that assigns it
// and, when syntactically available, the assigned expression. RHS is
// nil for definitions with no usable source expression (range
// variables, zero-value declarations, parameters).
type DefSite struct {
	Node ast.Node
	RHS  ast.Expr
	// FromCall marks a definition from one result of a multi-value
	// call or a range clause, where RHS (if set) is the whole
	// call/range expression rather than the value itself.
	FromCall bool
}

type defSet map[types.Object]map[DefSite]bool

// ReachingDefs holds, per block, the definitions live on entry.
type ReachingDefs struct {
	info *types.Info
	in   map[*Block]defSet
}

// BuildReachingDefs solves reaching definitions for one function body.
// params are the function's parameter (and receiver) objects, which
// act as boundary definitions with a nil RHS.
func BuildReachingDefs(g *CFG, info *types.Info, params []types.Object) *ReachingDefs {
	spec := FlowSpec[defSet]{
		Boundary: func() defSet {
			s := make(defSet)
			for _, p := range params {
				s[p] = map[DefSite]bool{{}: true}
			}
			return s
		},
		Bottom: func() defSet { return make(defSet) },
		Copy:   copyDefSet,
		Merge:  mergeDefSet,
		Transfer: func(b *Block, in defSet) defSet {
			for _, n := range b.Nodes {
				applyDefs(n, info, in)
			}
			return in
		},
	}
	return &ReachingDefs{info: info, in: Solve(g, spec)}
}

// At returns the definitions of obj reaching block b just before its
// idx-th node executes.
func (rd *ReachingDefs) At(b *Block, idx int, obj types.Object) []DefSite {
	state := copyDefSet(rd.in[b])
	for i := 0; i < idx && i < len(b.Nodes); i++ {
		applyDefs(b.Nodes[i], rd.info, state)
	}
	var out []DefSite
	for site := range state[obj] {
		//nessa:sorted-iteration consumers join over the site set; the lattice join is commutative
		out = append(out, site)
	}
	return out
}

func copyDefSet(s defSet) defSet {
	out := make(defSet, len(s))
	for o, sites := range s {
		cp := make(map[DefSite]bool, len(sites))
		for site := range sites {
			cp[site] = true
		}
		out[o] = cp
	}
	return out
}

func mergeDefSet(dst, src defSet) bool {
	changed := false
	for o, sites := range src {
		d := dst[o]
		if d == nil {
			d = make(map[DefSite]bool, len(sites))
			dst[o] = d
		}
		for site := range sites {
			if !d[site] {
				d[site] = true
				changed = true
			}
		}
	}
	return changed
}

// applyDefs updates the reaching-def state across one CFG node. Only
// whole-variable writes (plain identifier targets) kill; writes
// through selectors or indices mutate the referent, not the binding.
func applyDefs(n ast.Node, info *types.Info, state defSet) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		multi := len(n.Lhs) > 1 && len(n.Rhs) == 1
		for i, lhs := range n.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := objOf(info, id)
			if obj == nil {
				continue
			}
			site := DefSite{Node: n}
			if multi {
				site.RHS = n.Rhs[0]
				site.FromCall = true
			} else if i < len(n.Rhs) {
				site.RHS = n.Rhs[i]
			}
			state[obj] = map[DefSite]bool{site: true}
		}
	case *ast.IncDecStmt:
		if id, ok := unparen(n.X).(*ast.Ident); ok {
			if obj := objOf(info, id); obj != nil {
				state[obj] = map[DefSite]bool{{Node: n, RHS: n.X}: true}
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj := objOf(info, name)
				if obj == nil || name.Name == "_" {
					continue
				}
				site := DefSite{Node: n}
				if len(vs.Values) == len(vs.Names) {
					site.RHS = vs.Values[i]
				} else if len(vs.Values) == 1 {
					site.RHS = vs.Values[0]
					site.FromCall = true
				}
				state[obj] = map[DefSite]bool{site: true}
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if id, ok := unparen(e).(*ast.Ident); ok && id.Name != "_" {
				if obj := objOf(info, id); obj != nil {
					state[obj] = map[DefSite]bool{{Node: n, RHS: n.X, FromCall: true}: true}
				}
			}
		}
	}
}
