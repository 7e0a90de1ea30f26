package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrderAnalyzer flags range statements over maps whose bodies do
// order-sensitive work: appending to a slice (element order then
// depends on Go's randomized map iteration) or accumulating a
// floating-point value (float addition is not associative, so the sum
// bits depend on visit order). Either breaks the repository's
// bit-identical reproducibility contract.
//
// One escape, and no site-level waiver: appending keys that are
// subsequently passed to a sort.* or slices.Sort* call in the same
// function is recognized as the collect-then-sort idiom and allowed.
//
// Integer accumulation is deliberately not flagged: integer addition
// is exactly commutative, so visit order cannot change the result.
func MapOrderAnalyzer() *Analyzer {
	return &Analyzer{Name: "maporder", Run: runMapOrder}
}

func runMapOrder(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			sorted := sortedObjects(p, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.Pkg.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					return true
				}
				checkMapRangeBody(p, rs, sorted)
				return true
			})
			return true
		})
	}
}

// checkMapRangeBody reports order-sensitive statements in the body of
// a map-range statement.
func checkMapRangeBody(p *Pass, rs *ast.RangeStmt, sorted map[types.Object]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...): element order inherits map order
			// unless x is sorted afterwards.
			for i, rhs := range n.Rhs {
				call, ok := unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltin(p, call.Fun, "append") {
					continue
				}
				if i < len(n.Lhs) {
					if id, ok := unparen(n.Lhs[i]).(*ast.Ident); ok {
						if obj := objectOf(p, id); obj != nil && sorted[obj] {
							continue
						}
					}
				}
				p.Reportf(call.Pos(),
					"append inside map iteration: element order follows the randomized map order; sort the keys first (or sort the result)")
			}
			// x += <float>, x -= <float>, ...: float reduction order
			// follows map order.
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) == 1 && isFloat(p.Pkg.Info.TypeOf(n.Lhs[0])) {
					p.Reportf(n.Pos(),
						"floating-point accumulation inside map iteration: float addition is order-sensitive and map order is randomized; iterate sorted keys")
				}
			}
		}
		return true
	})
}

// sortedObjects collects the objects passed (possibly through one
// conversion) to a sort.* or slices.Sort* call anywhere in body — the
// second half of the collect-then-sort idiom.
func sortedObjects(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := p.Pkg.Info.Uses[pkgIdent].(*types.PkgName)
		if !ok {
			return true
		}
		if path := pn.Imported().Path(); path != "sort" && path != "slices" {
			return true
		}
		arg := unparen(call.Args[0])
		// sort.Sort(byName(keys)): look through a single conversion or
		// wrapper call.
		if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) == 1 {
			arg = unparen(inner.Args[0])
		}
		if id, ok := arg.(*ast.Ident); ok {
			if obj := objectOf(p, id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// objectOf resolves an identifier to its object via Uses or Defs.
func objectOf(p *Pass, id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// isBuiltin reports whether fun denotes the named predeclared builtin.
func isBuiltin(p *Pass, fun ast.Expr, name string) bool {
	id, ok := unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// isFloat reports whether t is (or has underlying) float32/float64.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
