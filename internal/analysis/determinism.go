package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallClockFuncs are the package-level time functions that read or
// depend on the wall clock. Device and core code must express time on
// the simulated clock (internal/simtime) so that every experiment is
// reproducible and independent of host speed.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
}

// DeterminismAnalyzer forbids wall-clock reads (time.Now, time.Since,
// time.Sleep, ...) and math/rand imports outside the benchmark
// harness, command binaries, and examples. Core and device code must
// use internal/simtime for time and the seeded SplitMix64 generators
// (tensor.RNG) for randomness, so that selection subsets and training
// trajectories replay bit-identically from a single seed. There is no
// site-level waiver.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{Name: "determinism", Run: runDeterminism}
}

// determinismExempt reports whether a package may legitimately touch
// the wall clock: benchmark emitters measure real elapsed time, and
// command/example binaries stamp reports with real dates.
func determinismExempt(module, importPath string) bool {
	return pathIn(importPath,
		module+"/internal/bench",
		module+"/cmd",
		module+"/examples",
	)
}

func runDeterminism(p *Pass) {
	module := moduleOf(p.Pkg.ImportPath)
	if determinismExempt(module, p.Pkg.ImportPath) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(),
					"import of %s: device/core code must use the seeded deterministic RNGs (tensor.RNG) so runs replay from a single seed", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Pkg.Info.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if !wallClockFuncs[fn.Name()] {
				return true
			}
			p.Reportf(sel.Pos(),
				"call to time.%s reads the wall clock: device/core code must use internal/simtime so experiments are deterministic", fn.Name())
			return true
		})
	}
}

// moduleOf extracts the module path prefix from an import path of this
// repository ("nessa/internal/x" -> "nessa"). Fixture packages use
// synthetic paths under the real module, so the first segment is
// always the module.
func moduleOf(importPath string) string {
	if i := strings.Index(importPath, "/"); i >= 0 {
		return importPath[:i]
	}
	return importPath
}
