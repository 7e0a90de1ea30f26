package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAnalyzer enforces the zero-allocation contract on functions
// annotated //nessa:hotpath in their doc comment: no make, new, or
// append (each may allocate or grow), no composite literals, no
// closures, no fmt.* calls, and no string concatenation. These are the
// functions whose AllocsPerRun budgets the trainer and gradcheck tests
// pin at runtime; the annotation pins the same property syntactically
// so a regression is caught at vet time, with a file:line, instead of
// by a benchmark gate.
//
// Two construct classes are recognized as legitimate and exempted
// automatically:
//
//   - arguments of panic(...) — the failure path never runs hot;
//   - make/new/append/composite-literal/closure sites inside an if
//     whose condition calls len or cap — the amortized warm-up growth
//     idiom (buffers grow to high-water capacity once, then steady
//     state allocates nothing).
//
// Anything else needs a //nessa:alloc-ok annotation on (or above) the
// line, with a justification (e.g. a pool-miss refill, or a
// once-per-dispatch closure amortized over a whole banded GEMM).
func HotPathAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "hotpath",
		Waiver: DirAllocOK,
		Doc:    "forbid allocating and formatting constructs in //nessa:hotpath functions",
		Run:    runHotPath,
	}
}

func runHotPath(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !HasDirective(fn.Doc, DirHotpath) {
				continue
			}
			checkHotPathBody(p, fn)
		}
	}
}

// span is a half-open position interval [lo, hi).
type span struct{ lo, hi token.Pos }

func (s span) contains(pos token.Pos) bool { return s.lo <= pos && pos < s.hi }

func anyContains(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.contains(pos) {
			return true
		}
	}
	return false
}

// hotExemptSpans computes the two automatically exempt position
// classes of a hotpath function body: panic arguments (the failure
// path never runs hot) and bodies of ifs whose condition calls len or
// cap (the amortized warm-up growth idiom). Shared by the source-level
// hotpath analyzer and the compiler-evidence escapecheck analyzer so
// both excuse exactly the same sites.
func hotExemptSpans(p *Pass, fn *ast.FuncDecl) (panicSpans, guardSpans []span) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(p, n.Fun, "panic") {
				panicSpans = append(panicSpans, span{n.Lparen, n.Rparen + 1})
			}
		case *ast.IfStmt:
			if condHasLenOrCap(p, n.Cond) {
				guardSpans = append(guardSpans, span{n.Body.Pos(), n.Body.End()})
			}
		}
		return true
	})
	return panicSpans, guardSpans
}

func checkHotPathBody(p *Pass, fn *ast.FuncDecl) {
	panicSpans, guardSpans := hotExemptSpans(p, fn)

	// allocFlag reports an allocation-class construct, honoring the
	// growth-guard spans and the alloc-ok annotation.
	allocFlag := func(pos token.Pos, what string) {
		if anyContains(panicSpans, pos) || anyContains(guardSpans, pos) {
			return
		}
		if p.ExemptAt(pos, DirAllocOK) {
			return
		}
		p.Reportf(pos, "%s in //nessa:hotpath function %s: the steady-state training path must not allocate (annotate //nessa:alloc-ok with a justification if this site is amortized)", what, fn.Name.Name)
	}
	// coldFlag reports a formatting-class construct: never excused by a
	// growth guard, only by panic context or an explicit annotation.
	coldFlag := func(pos token.Pos, what string) {
		if anyContains(panicSpans, pos) {
			return
		}
		if p.ExemptAt(pos, DirAllocOK) {
			return
		}
		p.Reportf(pos, "%s in //nessa:hotpath function %s (annotate //nessa:alloc-ok with a justification if unavoidable)", what, fn.Name.Name)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltin(p, n.Fun, "make"):
				allocFlag(n.Pos(), "make")
			case isBuiltin(p, n.Fun, "new"):
				allocFlag(n.Pos(), "new")
			case isBuiltin(p, n.Fun, "append"):
				allocFlag(n.Pos(), "append (may grow the backing array)")
			default:
				if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
					if m := syncMethod(p.Pkg.Info, n); m == "Pool.Get" || m == "Pool.Put" {
						// sync.Pool is wrong on the steady-state path twice
						// over: Get allocates on a miss, and the GC drains
						// the pool between epochs so misses recur forever.
						coldFlag(n.Pos(), "sync.Pool."+sel.Sel.Name+" (the GC drains sync.Pool, so misses — and their allocations — recur; use a parallel.WorkerLocal arena or a persistent free list)")
					} else if obj, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func); ok &&
						obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
						coldFlag(n.Pos(), "call to fmt."+obj.Name())
					}
				}
			}
		case *ast.CompositeLit:
			allocFlag(n.Pos(), "composite literal")
		case *ast.FuncLit:
			allocFlag(n.Pos(), "closure (function literal captures escape to the heap)")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(p.Pkg.Info.TypeOf(n)) && !isConstant(p, n) {
				coldFlag(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(p.Pkg.Info.TypeOf(n.Lhs[0])) {
				coldFlag(n.Pos(), "string concatenation")
			}
		}
		return true
	})
}

// condHasLenOrCap reports whether cond contains a call to the len or
// cap builtin — the signature of an amortized growth guard.
func condHasLenOrCap(p *Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if isBuiltin(p, call.Fun, "len") || isBuiltin(p, call.Fun, "cap") {
				found = true
			}
		}
		return !found
	})
	return found
}

// isString reports whether t is (or has underlying) string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstant reports whether the expression is a compile-time constant
// (constant folding happens before codegen, so constant concatenation
// never allocates at run time).
func isConstant(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}
