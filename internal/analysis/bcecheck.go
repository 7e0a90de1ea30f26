package analysis

import (
	"go/ast"
)

// BCECheckAnalyzer verifies that the index expressions in the
// innermost loops of the kernel packages' //nessa:hotpath functions
// were bounds-check-eliminated by SSA, per the ssa/check_bce debug
// log. A bounds check the prover could not discharge costs a compare
// and branch per element exactly where the GEMM and loss kernels spin
// tightest — and it appears or vanishes silently as the surrounding
// slicing hints change, which is why the gate reads the compiler's
// verdict instead of eyeballing the hints.
//
// Scope is deliberately the innermost loops (loop bodies containing no
// nested loop) of annotated functions in internal/tensor, internal/nn
// and internal/erasure: setup code, panics, and outer blocking loops
// legitimately keep their checks. Only IsInBounds (indexing) facts are
// gated; IsSliceInBounds facts come from slice expressions, which in
// these kernels carve a row or panel per iteration and amortize their
// one check over the multi-element operation they feed — a different
// cost class from a check paid per scalar load. A check that survives
// for a reason the prover cannot see (data-dependent invariant,
// documented tail case) takes a //nessa:bce-ok waiver with a
// justification.
func BCECheckAnalyzer() *Analyzer {
	return &Analyzer{Name: "bcecheck", Run: runBCECheck}
}

// bceScoped is the numeric kernel packages, whose inner loops carry
// the throughput, plus the GF(256) kernels, whose table-lookup loops
// run once per reconstructed byte.
func bceScoped(module, importPath string) bool {
	return pathIn(importPath,
		module+"/internal/tensor",
		module+"/internal/nn",
		module+"/internal/erasure",
	)
}

func runBCECheck(p *Pass) {
	if p.Evidence == nil {
		return
	}
	if !bceScoped(moduleOf(p.Pkg.ImportPath), p.Pkg.ImportPath) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !HasDirective(fn.Doc, DirHotpath) {
				continue
			}
			checkInnerLoopBCE(p, fn)
		}
	}
}

// innermostLoopSpans returns the body spans of loops that contain no
// nested loop — the per-element kernels.
func innermostLoopSpans(fn *ast.FuncDecl) []span {
	var spans []span
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		if !containsLoop(body) {
			spans = append(spans, span{body.Pos(), body.End()})
		}
		return true
	})
	return spans
}

func containsLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		case *ast.FuncLit:
			// A nested closure's loops are its own problem.
			return false
		}
		return !found
	})
	return found
}

func checkInnerLoopBCE(p *Pass, fn *ast.FuncDecl) {
	loops := innermostLoopSpans(fn)
	if len(loops) == 0 {
		return
	}
	start := p.Pkg.Fset.Position(fn.Pos())
	end := p.Pkg.Fset.Position(fn.End())
	for _, fact := range p.Evidence.Span(start.Filename, start.Line, end.Line) {
		if fact.Kind != FactBoundsCheck || fact.Name != "IsInBounds" {
			continue
		}
		pos := p.PosAt(fact.File, fact.Line, fact.Col)
		if !pos.IsValid() || !anyContains(loops, pos) {
			continue
		}
		if p.ExemptAt(pos, DirBCEOK) {
			continue
		}
		p.Reportf(pos, "ssa/check_bce: %s survives in an innermost loop of //nessa:hotpath function %s — the hot kernel pays a bounds check per element (hoist the proof with a full-slice re-slice, or annotate //nessa:bce-ok with a justification)",
			fact.Name, fn.Name.Name)
	}
}
