package analysis

import (
	"go/ast"
	"go/token"
)

// FMAAnalyzer flags floating-point expressions of the shape a*b + c
// (and a*b - c, c + a*b, x += a*b, x -= a*b) in the numeric kernel
// packages. The Go specification permits an implementation to fuse a
// multiplication and addition that occur within a single expression
// into one FMA instruction, which rounds once instead of twice —
// producing different low bits than the two-rounding sequence. The
// repository's bit-exact AVX kernels and the portable Go kernels must be
// bit-identical (that equality is the cross-architecture
// reproducibility contract from the zero-allocation training PR), so
// kernel code must materialize the product into an explicit temporary:
// assignment forces the value to round to its declared type, which
// legally forbids fusion:
//
//	t := a * b   // rounds the product to float32
//	sum += t     // plain add, nothing left to fuse
//
// The analyzer runs only over internal/tensor and internal/nn — the
// packages whose outputs feed the bit-identity gates. Constant-folded
// expressions are ignored. Opt-out: //nessa:fma-ok on (or above) the
// line.
func FMAAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "fma",
		Waiver: DirFMAOK,
		Doc:    "flag fusable float multiply-add expressions in kernel packages",
		Run:    runFMA,
	}
}

// fmaScoped reports whether the package is one of the numeric kernel
// packages the bit-identity contract covers.
func fmaScoped(module, importPath string) bool {
	return pathIn(importPath,
		module+"/internal/tensor",
		module+"/internal/nn",
	)
}

func runFMA(p *Pass) {
	if !fmaScoped(moduleOf(p.Pkg.ImportPath), p.Pkg.ImportPath) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.ADD && n.Op != token.SUB {
					return true
				}
				if !isFloat(p.Pkg.Info.TypeOf(n)) || isConstant(p, n) {
					return true
				}
				if !isFloatMul(p, n.X) && !isFloatMul(p, n.Y) {
					return true
				}
				if p.ExemptAt(n.Pos(), DirFMAOK) {
					return true
				}
				p.Reportf(n.Pos(),
					"float multiply-%s in a single expression may compile to a fused multiply-add and break amd64-vs-portable bit identity; assign the product to an explicit temporary first", opName(n.Op))
			case *ast.AssignStmt:
				if n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN {
					return true
				}
				if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
					return true
				}
				if !isFloat(p.Pkg.Info.TypeOf(n.Lhs[0])) {
					return true
				}
				if !isFloatMul(p, n.Rhs[0]) {
					return true
				}
				if p.ExemptAt(n.Pos(), DirFMAOK) {
					return true
				}
				p.Reportf(n.Pos(),
					"x %s a*b is a single expression the compiler may fuse into an FMA, breaking amd64-vs-portable bit identity; assign the product to an explicit temporary first", n.Tok)
			}
			return true
		})
	}
}

// isFloatMul reports whether e (stripped of parentheses, which do not
// inhibit fusion) is a non-constant floating-point multiplication.
func isFloatMul(p *Pass, e ast.Expr) bool {
	b, ok := unparen(e).(*ast.BinaryExpr)
	if !ok || b.Op != token.MUL {
		return false
	}
	return isFloat(p.Pkg.Info.TypeOf(b)) && !isConstant(p, b)
}

func opName(op token.Token) string {
	if op == token.SUB {
		return "subtract"
	}
	return "add"
}
