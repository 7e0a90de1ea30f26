package analysis

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSrc type-checks one synthetic file as its own package and
// returns it. Each call uses a fresh loader so memoization never leaks
// between tests.
func loadSrc(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "nessa/internal/fixture/flowtest")
	if err != nil {
		t.Fatalf("loading synthetic package: %v", err)
	}
	return pkg
}

// funcBody returns the body of the named function in pkg.
func funcBody(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// reachable returns the set of blocks reachable from b.
func reachable(b *Block) map[*Block]bool {
	seen := map[*Block]bool{b: true}
	stack := []*Block{b}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range cur.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

func TestCFGIfJoin(t *testing.T) {
	pkg := loadSrc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}
`)
	g := BuildCFG(funcBody(t, pkg, "f").Body)
	seen := reachable(g.Entry)
	if !seen[g.Exit] {
		t.Fatal("exit not reachable from entry")
	}
	if len(g.Exit.Succs) != 0 {
		t.Errorf("exit block has successors: %v", g.Exit.Succs)
	}
	// The branch head must fork: two successors for then/else.
	forked := false
	for b := range seen {
		if len(b.Succs) == 2 {
			forked = true
		}
	}
	if !forked {
		t.Error("if/else produced no two-way branch block")
	}
	// All four assignments/returns must land in reachable blocks.
	nodes := 0
	for b := range seen {
		nodes += len(b.Nodes)
	}
	if nodes < 4 {
		t.Errorf("expected at least 4 reachable nodes, got %d", nodes)
	}
}

func TestCFGLoopHasCycleAndBreakEdge(t *testing.T) {
	pkg := loadSrc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 7 {
			break
		}
		s += i
	}
	return s
}
`)
	g := BuildCFG(funcBody(t, pkg, "f").Body)
	seen := reachable(g.Entry)
	if !seen[g.Exit] {
		t.Fatal("exit not reachable (break edge missing)")
	}
	// A loop must put some block on a cycle: reachable from itself.
	cyclic := false
	for b := range seen {
		for s := range reachable(b) {
			if s != b {
				for _, back := range s.Succs {
					if back == b {
						cyclic = true
					}
				}
			}
		}
	}
	if !cyclic {
		t.Error("for loop produced an acyclic CFG")
	}
}

func TestCFGPanicTerminatesBlock(t *testing.T) {
	pkg := loadSrc(t, `package p
func f(c bool) int {
	if c {
		panic("no")
	}
	return 1
}
`)
	g := BuildCFG(funcBody(t, pkg, "f").Body)
	// The node after a panic must not execute: the block holding the
	// panic call has no fallthrough successor carrying the return.
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						if i != len(b.Nodes)-1 {
							t.Error("panic is not the last node of its block")
						}
						// The only way out of a panic is the function
						// exit — no fallthrough to the return.
						if len(b.Succs) != 1 || b.Succs[0] != g.Exit {
							t.Errorf("panic block must edge only to exit, got %v", b.Succs)
						}
					}
				}
			}
		}
	}
}

// nodeOf finds the block and index of the first node satisfying match.
func nodeOf(g *CFG, match func(ast.Node) bool) (*Block, int) {
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if match(n) {
				return b, i
			}
		}
	}
	return nil, 0
}

// assignTo matches an assignment whose first target is the named
// identifier.
func assignTo(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) == 0 {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		return ok && id.Name == name
	}
}

func objNamed(t *testing.T, pkg *Package, name string) types.Object {
	t.Helper()
	for id, obj := range pkg.Info.Defs {
		if obj != nil && id.Name == name {
			if _, ok := obj.(*types.Var); ok {
				return obj
			}
		}
	}
	t.Fatalf("no variable %s defined in package", name)
	return nil
}

func TestReachingDefsJoin(t *testing.T) {
	pkg := loadSrc(t, `package p
func f(p int) int {
	x := 1
	if p > 0 {
		x = 2
	}
	return x
}
`)
	fd := funcBody(t, pkg, "f")
	g := BuildCFG(fd.Body)
	rd := BuildReachingDefs(g, pkg.Info, nil)
	x := objNamed(t, pkg, "x")
	b, idx := nodeOf(g, func(n ast.Node) bool { _, ok := n.(*ast.ReturnStmt); return ok })
	if b == nil {
		t.Fatal("return node not found")
	}
	sites := rd.At(b, idx, x)
	if len(sites) != 2 {
		t.Fatalf("expected 2 reaching definitions of x at the return (x := 1 and x = 2), got %d", len(sites))
	}
	for _, s := range sites {
		if s.RHS == nil {
			t.Error("definition site lost its RHS expression")
		}
	}
}

func TestReachingDefsKill(t *testing.T) {
	pkg := loadSrc(t, `package p
func f() int {
	x := 1
	x = 2
	return x
}
`)
	fd := funcBody(t, pkg, "f")
	g := BuildCFG(fd.Body)
	rd := BuildReachingDefs(g, pkg.Info, nil)
	x := objNamed(t, pkg, "x")
	b, idx := nodeOf(g, func(n ast.Node) bool { _, ok := n.(*ast.ReturnStmt); return ok })
	sites := rd.At(b, idx, x)
	if len(sites) != 1 {
		t.Fatalf("straight-line overwrite must kill: expected 1 reaching def, got %d", len(sites))
	}
	if lit, ok := sites[0].RHS.(*ast.BasicLit); !ok || lit.Value != "2" {
		t.Errorf("surviving definition is not x = 2: %v", sites[0].RHS)
	}
}

func TestCallGraphFixpoint(t *testing.T) {
	pkg := loadSrc(t, `package p
func a() int { return b() }
func b() int { return c() }
func c() int { return 1 }
func loner() int { return other() }
func other() int { return loner() }
`)
	cg := BuildCallGraph(pkg)
	if len(cg.Decls) != 5 {
		t.Fatalf("expected 5 declared functions, got %d", len(cg.Decls))
	}
	// Property: "returns a literal, or calls only functions with the
	// property". c holds it directly; b and a inherit it through the
	// fixpoint; the loner/other cycle never bootstraps.
	res := cg.Fixpoint(func(fn *types.Func, decl *ast.FuncDecl, cur map[*types.Func]bool) bool {
		ok := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			ret, isRet := n.(*ast.ReturnStmt)
			if !isRet || len(ret.Results) == 0 {
				return true
			}
			switch r := ret.Results[0].(type) {
			case *ast.BasicLit:
				ok = true
			case *ast.CallExpr:
				if callee := StaticCallee(pkg.Info, r); callee != nil && cur[callee] {
					ok = true
				}
			}
			return true
		})
		return ok
	})
	got := make(map[string]bool)
	for fn, v := range res {
		got[fn.Name()] = v
	}
	for _, name := range []string{"a", "b", "c"} {
		if !got[name] {
			t.Errorf("%s should reach the fixpoint property", name)
		}
	}
	for _, name := range []string{"loner", "other"} {
		if got[name] {
			t.Errorf("%s is a bare cycle and must stay false", name)
		}
	}
}

func TestByNameTrimsAndDeduplicates(t *testing.T) {
	az, err := ByName([]string{" fma", " hotpath ", "hotpath", ""})
	if err != nil {
		t.Fatal(err)
	}
	if len(az) != 2 {
		names := make([]string, 0, len(az))
		for _, a := range az {
			names = append(names, a.Name)
		}
		t.Fatalf("expected [fma hotpath], got %v", names)
	}
	if az[0].Name != "fma" || az[1].Name != "hotpath" {
		t.Errorf("wrong analyzers: %s, %s", az[0].Name, az[1].Name)
	}
	if _, err := ByName([]string{"fma", "nosuch"}); err == nil {
		t.Error("unknown analyzer name must error")
	}
}

// TestByNameErrorListsValidAnalyzers pins the -run typo experience:
// the error enumerates every valid name from both suites.
func TestByNameErrorListsValidAnalyzers(t *testing.T) {
	_, err := ByName([]string{"hotpaht"})
	if err == nil {
		t.Fatal("ByName accepted an unknown analyzer name")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"hotpaht"`) {
		t.Errorf("error does not quote the unknown name: %s", msg)
	}
	for _, a := range All() {
		if !strings.Contains(msg, a.Name) {
			t.Errorf("error does not list source analyzer %s: %s", a.Name, msg)
		}
	}
	for _, a := range CompilerAll() {
		if !strings.Contains(msg, a.Name) {
			t.Errorf("error does not list compiler analyzer %s: %s", a.Name, msg)
		}
	}
}

// TestRunDeterministic loads the same fixture tree twice through
// independent loaders and requires byte-identical finding sequences —
// the ordering contract CI diffs depend on.
func TestRunDeterministic(t *testing.T) {
	root := repoRoot(t)
	dirs := []struct{ dir, path string }{
		{"concurrency", "nessa/internal/fixture/concurrency"},
		{"scratchlife", "nessa/internal/fixture/scratchlife"},
		{"seedflow", "nessa/internal/fixture/seedflow"},
	}
	load := func() []string {
		l := testLoader(t, root)
		var pkgs []*Package
		for _, d := range dirs {
			pkg, err := l.LoadDir(filepath.Join(root, "internal", "analysis", "testdata", d.dir), d.path)
			if err != nil {
				t.Fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
		var out []string
		for _, f := range Run(pkgs, All()) {
			out = append(out, f.String())
		}
		return out
	}
	first, second := load(), load()
	if len(first) == 0 {
		t.Fatal("fixture tree produced no findings; determinism test is vacuous")
	}
	if len(first) != len(second) {
		t.Fatalf("finding counts differ across loads: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("finding %d differs across loads:\n  %s\n  %s", i, first[i], second[i])
		}
	}
}

// TestCFGLabeledBreakExitsOuterLoop pins the successor edge of a
// labeled break: it must leave the labeled (outer) loop entirely, not
// just the innermost one.
func TestCFGLabeledBreakExitsOuterLoop(t *testing.T) {
	pkg := loadSrc(t, `package p
func f(n int) int {
	s := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 3 {
				s = 1
				break outer
			}
		}
		s = 2
	}
	s = 3
	return s
}
`)
	g := BuildCFG(funcBody(t, pkg, "f").Body)
	// Pin each s-assignment block by its constant right-hand side.
	var breakBlock, afterOuter, innerTail *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				continue
			}
			lit, ok := as.Rhs[0].(*ast.BasicLit)
			if !ok {
				continue
			}
			switch lit.Value {
			case "1":
				breakBlock = b
			case "2":
				innerTail = b
			case "3":
				afterOuter = b
			}
		}
	}
	if breakBlock == nil || innerTail == nil || afterOuter == nil {
		t.Fatal("could not locate the three s-assignments in the CFG")
	}
	seen := reachable(breakBlock)
	if !seen[afterOuter] {
		t.Error("break outer: the statement after the outer loop is not reachable")
	}
	if seen[innerTail] {
		t.Error("break outer fell back into the outer loop body (labeled break mishandled)")
	}
}

// TestCFGLabeledContinueTargetsOuterPost pins labeled continue: its
// successor must be the labeled loop's post statement, not the inner
// loop's.
func TestCFGLabeledContinueTargetsOuterPost(t *testing.T) {
	pkg := loadSrc(t, `package p
func f(n int) int {
	s := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 3 {
				s = 1
				continue outer
			}
		}
	}
	return s
}
`)
	g := BuildCFG(funcBody(t, pkg, "f").Body)
	var contBlock, outerPost, innerPost *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if lit, ok := n.Rhs[0].(*ast.BasicLit); ok && lit.Value == "1" {
					contBlock = b
				}
			case *ast.IncDecStmt:
				if id, ok := n.X.(*ast.Ident); ok {
					switch id.Name {
					case "i":
						outerPost = b
					case "j":
						innerPost = b
					}
				}
			}
		}
	}
	if contBlock == nil || outerPost == nil || innerPost == nil {
		t.Fatal("could not locate the continue block and loop posts in the CFG")
	}
	succs := make(map[*Block]bool)
	for _, s := range contBlock.Succs {
		succs[s] = true
	}
	if !succs[outerPost] {
		t.Error("continue outer does not edge to the outer loop's post statement")
	}
	if succs[innerPost] {
		t.Error("continue outer edges to the inner loop's post statement (label ignored)")
	}
}

// TestCFGGotoForwardSkips pins forward goto: the skipped statement
// must not be reachable from the jump, while the label target is.
func TestCFGGotoForwardSkips(t *testing.T) {
	pkg := loadSrc(t, `package p
func f(c bool) int {
	s := 0
	if c {
		s = 9
		goto done
	}
	s = 1
done:
	s = 2
	return s
}
`)
	g := BuildCFG(funcBody(t, pkg, "f").Body)
	// Branch statements carry no node of their own — the jump is pure
	// edges — so the goto's block is pinned by the s = 9 marker
	// immediately before it.
	var gotoBlock, skipped, target *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				continue
			}
			if lit, ok := as.Rhs[0].(*ast.BasicLit); ok {
				switch lit.Value {
				case "9":
					gotoBlock = b
				case "1":
					skipped = b
				case "2":
					target = b
				}
			}
		}
	}
	if gotoBlock == nil || skipped == nil || target == nil {
		t.Fatal("could not locate goto, skipped, and target blocks in the CFG")
	}
	seen := reachable(gotoBlock)
	if !seen[target] {
		t.Error("goto done: label target not reachable from the jump")
	}
	if seen[skipped] {
		t.Error("goto done: the skipped statement is reachable from the jump")
	}
}

// TestCFGGotoBackwardFormsCycle pins backward goto: it must create a
// loop in the graph (and the exit must stay reachable through the
// conditional).
func TestCFGGotoBackwardFormsCycle(t *testing.T) {
	pkg := loadSrc(t, `package p
func f(n int) int {
	i := 0
again:
	i++
	if i < n {
		goto again
	}
	return i
}
`)
	g := BuildCFG(funcBody(t, pkg, "f").Body)
	var incBlock *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if inc, ok := n.(*ast.IncDecStmt); ok {
				if id, ok := inc.X.(*ast.Ident); ok && id.Name == "i" {
					incBlock = b
				}
			}
		}
	}
	if incBlock == nil {
		t.Fatal("could not locate the i++ block in the CFG")
	}
	if !reachable(incBlock)[incBlock] {
		// reachable() seeds with the block itself, so probe successors.
		t.Fatal("unreachable")
	}
	cyclic := false
	for _, s := range incBlock.Succs {
		if reachable(s)[incBlock] {
			cyclic = true
		}
	}
	if !cyclic {
		t.Error("backward goto produced an acyclic CFG")
	}
	if !reachable(g.Entry)[g.Exit] {
		t.Error("exit not reachable: the conditional around the goto lost its fallthrough edge")
	}
}
