package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ErrHygieneAnalyzer keeps the sentinel-error taxonomy load-bearing in
// the packages that define and wrap it (internal/faults and its
// consumers internal/storage, internal/smartssd, internal/erasure,
// internal/core — the recovery paths classify whole-device loss with
// errors.Is(faults.ErrDeviceLost), which only works while every layer
// wraps with %w). It flags:
//
//   - err == ErrX / err != ErrX identity comparisons (nil comparisons
//     are fine) — wrapping with %w makes identity false while
//     errors.Is stays true, so identity checks silently rot;
//   - matching on error text: err.Error() compared against a string,
//     or passed to strings.Contains/HasPrefix/HasSuffix — messages
//     are documentation, not API;
//   - fmt.Errorf calls that pass an error argument without a %w verb
//     in the format — the cause is stringified and falls out of the
//     errors.Is/As chain.
//
// There is no site-level waiver.
func ErrHygieneAnalyzer() *Analyzer {
	return &Analyzer{Name: "errhygiene", Run: runErrHygiene}
}

// errHygieneScoped reports whether the package participates in the
// sentinel-error contract.
func errHygieneScoped(module, importPath string) bool {
	return pathIn(importPath,
		module+"/internal/faults",
		module+"/internal/storage",
		module+"/internal/smartssd",
		module+"/internal/erasure",
		module+"/internal/core",
	)
}

func runErrHygiene(p *Pass) {
	if !errHygieneScoped(moduleOf(p.Pkg.ImportPath), p.Pkg.ImportPath) {
		return
	}
	errType := types.Universe.Lookup("error").Type()
	isErr := func(e ast.Expr) bool {
		tv, ok := p.Pkg.Info.Types[e]
		if !ok || tv.IsNil() {
			return false
		}
		return types.AssignableTo(tv.Type, errType)
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isErr(n.X) && isErr(n.Y) {
					p.Reportf(n.Pos(),
						"error compared by identity (%s): wrapped sentinels no longer compare equal; use errors.Is", n.Op)
					return true
				}
				if isErrorText(p, n.X) || isErrorText(p, n.Y) {
					p.Reportf(n.Pos(),
						"error matched by message text: messages are not API; use errors.Is against the sentinel")
				}
			case *ast.CallExpr:
				checkStringsMatch(p, n)
				checkErrorfWrap(p, n, isErr)
			}
			return true
		})
	}
}

// isErrorText reports whether e is a call of the form x.Error() on an
// error value.
func isErrorText(p *Pass, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	obj, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	return types.AssignableTo(sig.Recv().Type(), errType) ||
		types.Implements(sig.Recv().Type(), errType.Underlying().(*types.Interface))
}

// checkStringsMatch flags strings.Contains/HasPrefix/HasSuffix calls
// fed by err.Error().
func checkStringsMatch(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "strings" {
		return
	}
	switch obj.Name() {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index":
	default:
		return
	}
	for _, arg := range call.Args {
		if isErrorText(p, arg) {
			p.Reportf(call.Pos(),
				"strings.%s over err.Error(): error messages are not API; use errors.Is against the sentinel", obj.Name())
			return
		}
	}
}

// checkErrorfWrap flags fmt.Errorf calls that pass an error without a
// %w verb in a constant format string.
func checkErrorfWrap(p *Pass, call *ast.CallExpr, isErr func(ast.Expr) bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" || obj.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := p.Pkg.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if isErr(arg) {
			p.Reportf(call.Pos(),
				"fmt.Errorf stringifies an error argument without %%w: the cause drops out of the errors.Is/As chain; wrap it with %%w")
			return
		}
	}
}
