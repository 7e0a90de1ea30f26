package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// repoRoot walks up from the test's working directory to the module
// root (the directory holding go.mod).
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// The test loaders share one file set and one stdlib source importer:
// each fresh importer would type-check the standard library from
// source again (0.4–0.8 s per load). Module packages are still loaded
// per loader, so tests do not see each other's memoized packages.
var (
	testFset = token.NewFileSet()
	testStd  = importer.ForCompiler(testFset, "source", nil)
)

// testLoader returns a fresh loader for the module rooted at root.
func testLoader(t *testing.T, root string) *Loader {
	t.Helper()
	l, err := newLoader(root, testFset, testStd)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// wantRe matches the golden-fixture expectation comments:
//
//	expr // want "substring of the diagnostic"
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// readWants returns line -> expected message substrings for every
// `// want "..."` comment in the fixture file.
func readWants(t *testing.T, file string) map[int][]string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int][]string)
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			wants[i+1] = append(wants[i+1], m[1])
		}
	}
	return wants
}

// runFixture loads one testdata package under the given import path
// (paths matter: several analyzers scope their rules by package), runs
// a single analyzer, and matches findings against the fixture's
// `// want` comments one-to-one.
func runFixture(t *testing.T, analyzer, dir, importPath string) {
	t.Helper()
	fixDir := filepath.Join(repoRoot(t), "internal", "analysis", "testdata", dir)
	matchWants(t, analyzerFindings(t, analyzer, fixDir, importPath), collectWants(t, fixDir, ".go"))
}

// collectWants gathers the `// want` expectations from every fixture
// file in dir with one of the given extensions, keyed by line.
func collectWants(t *testing.T, dir string, exts ...string) map[int][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int][]string)
	for _, e := range entries {
		for _, ext := range exts {
			if strings.HasSuffix(e.Name(), ext) {
				for line, subs := range readWants(t, filepath.Join(dir, e.Name())) {
					wants[line] = append(wants[line], subs...)
				}
				break
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture directory %s declares no // want comments", dir)
	}
	return wants
}

// matchWants checks findings against want expectations one-to-one by
// line number and message substring.
func matchWants(t *testing.T, findings []Finding, wants map[int][]string) {
	t.Helper()
	for _, f := range findings {
		line := f.Pos.Line
		matched := -1
		for i, sub := range wants[line] {
			if strings.Contains(f.Message, sub) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding at line %d: %s", line, f.Message)
			continue
		}
		wants[line] = append(wants[line][:matched], wants[line][matched+1:]...)
		if len(wants[line]) == 0 {
			delete(wants, line)
		}
	}
	for line, subs := range wants {
		for _, sub := range subs {
			t.Errorf("line %d: expected a finding containing %q, got none", line, sub)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	// Any import path outside internal/bench, cmd, and examples is in
	// scope for the determinism rules.
	runFixture(t, "determinism", "determinism", "nessa/internal/fixture/determinism")
}

func TestHotPathFixture(t *testing.T) {
	runFixture(t, "hotpath", "hotpath", "nessa/internal/fixture/hotpath")
}

func TestErrHygieneFixture(t *testing.T) {
	// errhygiene scopes to the sentinel-error packages.
	runFixture(t, "errhygiene", "errhygiene", "nessa/internal/storage/fixture")
	// The erasure package joined the scope with the device-loss
	// recovery work: the same fixture must fire there too.
	runFixture(t, "errhygiene", "errhygiene", "nessa/internal/erasure/fixture")
}

// TestRepoVetClean is the clean-tree gate: every analyzer over every
// package in the repository must report zero findings at HEAD.
func TestRepoVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree type check is slow; skipped in -short mode")
	}
	root := repoRoot(t)
	pkgs := loadModule(t, root)
	for _, f := range Run(pkgs, All()) {
		t.Errorf("%s", f.String())
	}
	for _, u := range uncalledFuncs(t, root, pkgs) {
		t.Errorf("%s", u)
	}
}

// callerExempt lists the functions of internal/... and cmd/... that no
// non-test file names but that stay, keyed "importpath.Func" or
// "importpath.Type.Method", each with its reason.
var callerExempt = map[string]string{
	"nessa/internal/selection.NaiveGreedy": "the reference greedy the lazy and stochastic maximizers are tested against",
	"nessa/internal/tensor.Matrix.At":      "other packages' tests read matrix elements with it",
	"nessa/internal/tensor.Matrix.Set":     "other packages' tests build matrices with it",
	"nessa/internal/tensor.FromRows":       "other packages' tests build matrices with it",
	"nessa/internal/nn.MLP.Clone":          "other packages' tests snapshot a model with it",
	"nessa/internal/nn.SGD.LR":             "other packages' tests read the optimizer's step size with it",
}

// uncalledFuncs returns one "file:line: name" line for each function or
// method declared in a non-test file of internal/... or cmd/... that no
// non-test file of the module names (through Info.Uses, Info.Selections
// or a generic instance's Origin) outside its own body. Exempt are main
// and init, methods that satisfy an interface declared in the module or
// error, fmt.Stringer, sort.Interface or heap.Interface, the analysis
// package (its front end is its tests), the root facade (the public
// API), and callerExempt, whose every entry must still be an uncalled
// function.
func uncalledFuncs(t *testing.T, root string, pkgs []*Package) []string {
	t.Helper()
	type span struct{ lo, hi token.Pos }
	decls := make(map[*types.Func]span)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
						decls[obj] = span{fn.Pos(), fn.End()}
					}
				}
			}
		}
	}
	named := make(map[*types.Func]bool)
	use := func(id *ast.Ident, obj types.Object) {
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		fn = fn.Origin()
		if s, ok := decls[fn]; ok && id.Pos() >= s.lo && id.Pos() < s.hi {
			return // a recursive call keeps nothing alive
		}
		named[fn] = true
	}
	var ifaces []*types.Interface
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			use(id, obj)
		}
		for sel, s := range pkg.Info.Selections {
			use(sel.Sel, s.Obj())
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, ref := range []struct{ path, name string }{{"fmt", "Stringer"}, {"sort", "Interface"}, {"container/heap", "Interface"}} {
		p, err := testStd.Import(ref.path)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(ref.name).Type().Underlying().(*types.Interface))
	}
	satisfies := func(recv types.Type, fn *types.Func) bool {
		for _, iface := range ifaces {
			if m, _ := types.MissingMethod(types.NewPointer(recv), iface, true); m == nil {
				if obj, _, _ := types.LookupFieldOrMethod(iface, false, fn.Pkg(), fn.Name()); obj != nil {
					return true
				}
			}
		}
		return false
	}
	var out []string
	exempted := make(map[string]bool)
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(pkg.ImportPath, "nessa/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") || rel == "internal/analysis" {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj := pkg.Info.Defs[fn.Name].(*types.Func)
				name := obj.Name()
				if fn.Recv == nil && (name == "main" || name == "init") || named[obj] {
					continue
				}
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					if satisfies(rt, obj) {
						continue
					}
					name = rt.(*types.Named).Obj().Name() + "." + name
				}
				if key := pkg.ImportPath + "." + name; callerExempt[key] != "" {
					exempted[key] = true
					continue
				}
				pos := pkg.Fset.Position(fn.Pos())
				file, _ := filepath.Rel(root, pos.Filename)
				out = append(out, fmt.Sprintf("%s:%d: %s.%s is named by no non-test file", file, pos.Line, pkg.Types.Name(), name))
			}
		}
	}
	for key := range callerExempt {
		if !exempted[key] {
			out = append(out, fmt.Sprintf("callerExempt: %s is called or gone; drop its entry", key))
		}
	}
	sort.Strings(out)
	return out
}

// loadModule loads every package of the module at root and fails t
// unless their import paths are exactly the ones `go list ./...`
// prints, so a clean-tree gate cannot pass by loading less.
func loadModule(t *testing.T, root string) []*Package {
	t.Helper()
	pkgs, err := testLoader(t, root).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	want := strings.Fields(string(out))
	got := make([]string, len(pkgs))
	for i, pkg := range pkgs {
		got[i] = pkg.ImportPath
	}
	missing := slices.DeleteFunc(slices.Clone(want), func(p string) bool { return slices.Contains(got, p) })
	extra := slices.DeleteFunc(slices.Clone(got), func(p string) bool { return slices.Contains(want, p) })
	if len(missing)+len(extra) > 0 {
		t.Fatalf("LoadAll disagrees with go list ./...: missing %v, extra %v", missing, extra)
	}
	return pkgs
}

// analyzerNamed returns the analyzer of either suite with the given
// name.
func analyzerNamed(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range append(All(), CompilerAll()...) {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// pinnedAnnotations lists, per directive and package, the functions
// that must keep their annotation. Losing one silently removes an
// analyzer's coverage: //nessa:hotpath is hotpath's and bcecheck's
// opt-in on the steady-state training entry points, //nessa:inline
// inlinegate's on the leaf kernels of the GEMM and similarity loops.
var pinnedAnnotations = map[string]map[string][]string{
	DirHotpath: {
		"internal/tensor":  {"MatMul", "MatMulTransB", "MatMulTransAAcc", "micro4x16", "micro4x8", "skipRow", "axpyRow", "Dot", "SoftmaxRows"},
		"internal/nn":      {"Forward", "ForwardInto", "Backward", "SoftmaxCEInto", "LossAndGradEmbeddingsInto"},
		"internal/trainer": {"TrainEpoch"},
	},
	DirInline: {
		"internal/tensor":    {"Dot", "Row", "At", "zeroRows"},
		"internal/selection": {"simOf"},
	},
}

func TestHotPathAnnotationsPinned(t *testing.T) {
	root := repoRoot(t)
	for dir, pkgs := range pinnedAnnotations {
		for rel, fns := range pkgs {
			checkAnnotated(t, root, dir, rel, fns)
		}
	}
}

// checkAnnotated fails t for each named function of the package at
// root/rel whose doc comment lacks the //nessa:dir directive.
func checkAnnotated(t *testing.T, root, dir, rel string, fns []string) {
	t.Helper()
	annotated := make(map[string]bool)
	fset := token.NewFileSet()
	pkgDir := filepath.Join(root, rel)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pkgDir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && HasDirective(fn.Doc, dir) {
				annotated[fn.Name.Name] = true
			}
		}
	}
	for _, name := range fns {
		if !annotated[name] {
			t.Errorf("%s: %s has lost its //nessa:%s annotation", rel, name, dir)
		}
	}
}

// TestInjectedAllocationCaught is the hotpath acceptance mutation: an
// unguarded append onto a retained slice in the MatMul driver, on a
// scratch copy of internal/tensor. Only the source analyzer can see it
// — growslice leaves no escape fact in gc's diagnostics, and doubling
// growth averages to zero in the AllocsPerRun tests — so hotpath must
// flag it; strip the annotation from the same copy and the finding
// must disappear.
func TestInjectedAllocationCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("package copies and repeated type checks are slow; skipped in -short mode")
	}
	srcDir := filepath.Join(repoRoot(t), "internal", "tensor")

	const driver = "func MatMul(dst, a, b *Matrix) {\n"
	inject := func(t *testing.T, src []byte) string {
		t.Helper()
		s := string(mustReplaceOnce(t, "gemm.go", src, driver, driver+"\tappendProbe = append(appendProbe, 0)\n"))
		return s + "\n// appendProbe is a test-injected retained slice.\nvar appendProbe []float32\n"
	}

	t.Run("annotated driver flags injected append", func(t *testing.T) {
		dir := copyPkg(t, srcDir, func(name string, src []byte) []byte {
			if name != "gemm.go" {
				return src
			}
			return []byte(inject(t, src))
		})
		findings := analyzerFindings(t, "hotpath", dir, "nessa/internal/tensor")
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, "append (may grow the backing array) in //nessa:hotpath function MatMul") {
				found = true
			} else {
				t.Errorf("unexpected extra finding: %s", f.String())
			}
		}
		if !found {
			t.Fatalf("injected append in MatMul was not flagged; findings: %v", findings)
		}
	})

	t.Run("stripping the annotation silences the analyzer", func(t *testing.T) {
		dir := copyPkg(t, srcDir, func(name string, src []byte) []byte {
			if name != "gemm.go" {
				return src
			}
			// Drop only the directive line immediately above MatMul.
			lines := strings.Split(inject(t, src), "\n")
			for i, line := range lines {
				if strings.HasPrefix(line, "func MatMul(") {
					for j := i - 1; j >= 0 && strings.HasPrefix(strings.TrimSpace(lines[j]), "//"); j-- {
						if strings.TrimSpace(lines[j]) == "//nessa:hotpath" {
							lines = append(lines[:j], lines[j+1:]...)
							break
						}
					}
					break
				}
			}
			return []byte(strings.Join(lines, "\n"))
		})
		for _, f := range analyzerFindings(t, "hotpath", dir, "nessa/internal/tensor") {
			if strings.Contains(f.Message, "function MatMul") {
				t.Errorf("annotation stripped but MatMul still flagged: %s", f.String())
			}
		}
	})
}

func TestConcurrencyFixture(t *testing.T) {
	runFixture(t, "concurrency", "concurrency", "nessa/internal/fixture/concurrency")
}

func TestScratchLifeFixture(t *testing.T) {
	runFixture(t, "scratchlife", "scratchlife", "nessa/internal/fixture/scratchlife")
}
