package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// InlineGateAnalyzer pins gc's inlining decisions for the leaf kernels
// annotated //nessa:inline. Two rules, both checked against the
// instrumented build rather than inferred:
//
//  1. declaration rule — the annotated function must carry a
//     "can inline ... with cost N" fact. When it does not, the finding
//     quotes gc's own reason ("cost 105 exceeds budget 80"), so a
//     refactor that pushes a kernel over the inline budget fails
//     loudly with the exact cost report instead of costing a silent
//     call-per-element in the hot loop.
//  2. call-site rule — every static call to an annotated function from
//     inside a //nessa:hotpath function must carry an "inlining call
//     to" fact. A hot call the inliner skipped (wrapped in a method
//     value, moved behind an interface, or demoted when the callee
//     grew) is a finding; there is no site-level waiver.
//
// Annotated declarations are indexed module-wide by RunCompiler, so
// the call-site rule resolves callees across package boundaries
// (nn's hot loops calling tensor.Dot, for example).
func InlineGateAnalyzer() *Analyzer {
	return &Analyzer{Name: "inlinegate", Run: runInlineGate}
}

func runInlineGate(p *Pass) {
	if p.Evidence == nil {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if HasDirective(fn.Doc, DirInline) {
				checkInlinable(p, fn)
			}
			if HasDirective(fn.Doc, DirHotpath) {
				checkHotCallSites(p, fn)
			}
		}
	}
}

// checkInlinable enforces the declaration rule.
func checkInlinable(p *Pass, fn *ast.FuncDecl) {
	pos := p.Pkg.Fset.Position(fn.Name.Pos())
	var cannot *Fact
	for _, fact := range p.Evidence.Span(pos.Filename, pos.Line, pos.Line) {
		switch fact.Kind {
		case FactCanInline:
			return
		case FactCannotInline:
			f := fact
			cannot = &f
		}
	}
	if cannot != nil {
		p.Reportf(fn.Name.Pos(), "gc cannot inline //nessa:inline function %s: %s — trim the body back under the inline budget or drop the annotation with a plan for the call overhead",
			fn.Name.Name, cannot.Detail)
		return
	}
	p.Reportf(fn.Name.Pos(), "no inlining decision recorded for //nessa:inline function %s — the instrumented build did not compile this declaration (check build constraints against the analysis GOARCH)",
		fn.Name.Name)
}

// checkHotCallSites enforces the call-site rule inside one hotpath
// function.
func checkHotCallSites(p *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(p.Pkg.Info, call)
		if callee == nil {
			return true
		}
		declPos := p.Pkg.Fset.Position(callee.Pos())
		name, marked := p.Evidence.inlineDeclAt(declPos.Filename, declPos.Line)
		if !marked {
			return true
		}
		callPos := p.Pkg.Fset.Position(call.Pos())
		if inlinedAt(p.Evidence, callPos.Filename, callPos.Line, name) {
			return true
		}
		p.Reportf(call.Pos(), "call to //nessa:inline function %s was not inlined in //nessa:hotpath function %s — the hot loop pays a call per iteration",
			name, fn.Name.Name)
		return true
	})
}

// inlinedAt reports whether an "inlining call to" fact for the named
// callee exists on the call's line. The fact's callee is matched by
// suffix: gc prints package-qualified and receiver-qualified names
// ("tensor.Dot", "(*Matrix).Row") while the declaration index holds
// the bare name.
func inlinedAt(ev *Evidence, file string, line int, name string) bool {
	for _, fact := range ev.Span(file, line, line) {
		if fact.Kind != FactInlineCall {
			continue
		}
		callee := fact.Name
		if i := strings.LastIndexByte(callee, '.'); i >= 0 {
			callee = callee[i+1:]
		}
		if callee == name {
			return true
		}
	}
	return false
}

// staticCallee resolves a call expression to the *types.Func it
// statically invokes: a plain identifier, a package-qualified
// selector, or a method selector. Calls through function values,
// interfaces, or builtins resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
