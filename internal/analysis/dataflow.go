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
// worklist solver. The concurrency analyzer's lock-state lattice and
// scratchlife's taint state run on it.

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
