// Package analysis is the repository's custom static-analysis suite.
// Five analyzers machine-check the source-level contracts the test
// suite otherwise only samples at runtime:
//
//   - determinism: no wall-clock or math/rand in device/core code
//   - hotpath:     no allocating or formatting constructs in functions
//     annotated //nessa:hotpath
//   - errhygiene:  sentinel errors compared with errors.Is and wrapped
//     with %w, never matched by identity or message text
//   - concurrency: WaitGroup.Add inside a go statement's closure, and
//     Unlock on a path with no Lock
//   - scratchlife: arena and worker-local scratch must not outlive its
//     epoch
//
// A second, compiler-evidence suite (inlinegate, bcecheck) checks the
// hot-path contracts against an instrumented build; see README's
// analyzer reference table.
//
// The suite's one front end is its tests: TestRepoVetClean and
// TestRepoCompilerClean run both suites over every package of the
// module, so `go test ./internal/analysis` fails on any finding.
// Every analyzer reports position-accurate findings; the directive
// constants below are its opt-ins and site-level waivers (DESIGN.md
// §4.7). The suite is built purely on the standard library — go/parser,
// go/ast, go/token, go/types with a source-loading importer —
// preserving the repository's no-external-dependency rule.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive names recognized after the "//nessa:" comment prefix.
const (
	// DirHotpath marks a function whose body must stay free of
	// allocating and formatting constructs (opt-in for the hotpath
	// analyzer).
	DirHotpath = "hotpath"
	// DirAllocOK exempts one flagged site inside a hotpath function
	// (e.g. a pool-miss refill or a once-per-call dispatch closure).
	DirAllocOK = "alloc-ok"
	// DirArena marks a type or struct field whose memory is
	// epoch-scoped scratch (opt-in seed for the scratchlife analyzer):
	// values read from it are valid only until the next epoch
	// overwrites them, and must not outlive that boundary.
	DirArena = "arena"
	// DirScratchOK waives one scratchlife escape: either a function
	// documented to hand out scratch-backed memory (ownership transfer
	// to a caller that returns it, or a view with a documented
	// lifetime), or a single flagged line.
	DirScratchOK = "scratch-ok"
	// DirInline marks a leaf kernel that must stay within gc's inline
	// budget and actually inline at hot call sites (opt-in for the
	// inlinegate compiler-evidence analyzer).
	DirInline = "inline"
	// DirBCEOK exempts one surviving bounds check in a hot inner loop
	// from the bcecheck compiler-evidence analyzer, with a
	// justification for why it cannot (or need not) be eliminated.
	DirBCEOK = "bce-ok"
)

// Finding is one diagnostic: where, which analyzer, and why.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		HotPathAnalyzer(),
		ErrHygieneAnalyzer(),
		ConcurrencyAnalyzer(),
		ScratchLifeAnalyzer(),
	}
}

// CompilerAll returns the compiler-evidence analyzer suite in a
// stable order. These run only through RunCompiler, with an Evidence
// attached to the pass; they are not part of All() because they are
// inert without an instrumented build.
func CompilerAll() []*Analyzer {
	return []*Analyzer{
		InlineGateAnalyzer(),
		BCECheckAnalyzer(),
	}
}

// Pass is the per-package context handed to an analyzer's Run.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	findings *[]Finding
	// directives maps filename -> line -> directive names present on
	// that line, for line-level opt-out lookup.
	directives map[string]map[int][]string
	// Evidence carries the parsed instrumented-build facts during a
	// RunCompiler pass; nil for source-level passes. The
	// compiler-evidence analyzers report nothing when it is nil.
	Evidence *Evidence
}

// PosAt translates an evidence fact position (absolute file, 1-based
// line and column) into a token.Pos of the package's file set, so
// facts can be tested against AST spans and directive lines. Returns
// token.NoPos when the file is not part of this package's load or the
// line is out of range.
func (p *Pass) PosAt(file string, line, col int) token.Pos {
	var tf *token.File
	for _, f := range p.Pkg.Files {
		if ff := p.Pkg.Fset.File(f.Pos()); ff.Name() == file {
			tf = ff
			break
		}
	}
	if tf == nil || line < 1 || line > tf.LineCount() {
		return token.NoPos
	}
	pos := tf.LineStart(line)
	if col > 1 {
		// Columns are byte offsets within the line; clamp to the file.
		off := tf.Offset(pos) + col - 1
		if off >= tf.Size() {
			off = tf.Size() - 1
		}
		pos = tf.Pos(off)
	}
	return pos
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExemptAt reports whether the line of pos, or the line immediately
// above it, carries the named //nessa: directive — the suite's
// site-level opt-out convention.
func (p *Pass) ExemptAt(pos token.Pos, name string) bool {
	position := p.Pkg.Fset.Position(pos)
	lines := p.directives[position.Filename]
	for _, d := range lines[position.Line] {
		if d == name {
			return true
		}
	}
	for _, d := range lines[position.Line-1] {
		if d == name {
			return true
		}
	}
	return false
}

// parseDirective extracts the directive name from one comment, or ""
// if the comment is not a //nessa: directive. Trailing words after the
// name are free-form justification text:
//
//	//nessa:alloc-ok pool miss, steady state reuses the buffer
func parseDirective(text string) string {
	rest, ok := strings.CutPrefix(text, "//nessa:")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return strings.TrimSpace(rest)
}

// HasDirective reports whether a doc comment group carries the named
// //nessa: directive (function-level annotations such as hotpath).
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if parseDirective(c.Text) == name {
			return true
		}
	}
	return false
}

// buildDirectives indexes every //nessa: comment in the package by
// file and line.
func buildDirectives(pkg *Package) map[string]map[int][]string {
	out := make(map[string]map[int][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name := parseDirective(c.Text)
				if name == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					out[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], name)
			}
		}
	}
	return out
}

// Run executes the given analyzers over the given packages and returns
// all findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	return run(pkgs, analyzers, nil)
}

// RunCompiler executes compiler-evidence analyzers over the packages
// with the parsed facts of an instrumented build attached, returning
// the findings sorted by position. Before the analyzers run, every
// //nessa:inline declaration across the loaded packages is indexed
// into the evidence so inlinegate's call-site rule resolves annotated
// callees across package boundaries.
func RunCompiler(pkgs []*Package, analyzers []*Analyzer, ev *Evidence) []Finding {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !HasDirective(fn.Doc, DirInline) {
					continue
				}
				pos := pkg.Fset.Position(fn.Name.Pos())
				ev.markInline(pos.Filename, pos.Line, fn.Name.Name)
			}
		}
	}
	return run(pkgs, analyzers, ev)
}

func run(pkgs []*Package, analyzers []*Analyzer, ev *Evidence) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		dirs := buildDirectives(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Pkg:        pkg,
				analyzer:   a,
				findings:   &findings,
				directives: dirs,
				Evidence:   ev,
			}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}

// pathIn reports whether importPath equals one of the prefixes or sits
// beneath one of them ("nessa/internal/tensor" matches prefix
// "nessa/internal/tensor" and so does "nessa/internal/tensor/sub").
func pathIn(importPath string, prefixes ...string) bool {
	for _, p := range prefixes {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
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
