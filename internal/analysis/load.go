// Package loading for nessa-vet. The loader resolves and type-checks
// repository packages using only the standard library: go/build for
// build-constraint evaluation, go/parser for syntax, and go/types for
// type information. Imports within this module are resolved straight
// from the repository tree; standard-library imports are delegated to
// the stdlib source importer (go/importer, compiler "source"), so the
// tool needs no pre-compiled export data and no golang.org/x/tools
// dependency — the same stdlib-only rule the rest of the repository
// follows.
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked, non-test package of the repository: the
// unit every analyzer runs over.
type Package struct {
	// ImportPath is the package's import path ("nessa/internal/tensor").
	// Analyzer scoping (exempt packages, per-package rule sets) keys off
	// this path.
	ImportPath string
	// Dir is the absolute directory the package was loaded from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of a single module rooted at a
// directory containing go.mod. It memoizes by import path, so shared
// dependencies are checked once and type identity is preserved across
// the whole load.
type Loader struct {
	Fset   *token.FileSet
	root   string // module root (directory containing go.mod)
	module string // module path from go.mod
	std    types.Importer
	pkgs   map[string]*Package
	ctxt   build.Context
}

// NewLoader returns a loader for the module rooted at root. The module
// path is read from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	fset := token.NewFileSet()
	return newLoader(root, fset, importer.ForCompiler(fset, "source", nil))
}

// newLoader is NewLoader over a caller-supplied file set and stdlib
// importer (which must share that file set), so several loaders can
// reuse one type-checked standard library.
func newLoader(root string, fset *token.FileSet, std types.Importer) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	// The loader parses every file itself; go/build is used only to
	// evaluate build constraints, so keep its behavior hermetic.
	ctxt.UseAllFiles = false
	return &Loader{
		Fset:   fset,
		root:   abs,
		module: mod,
		std:    std,
		pkgs:   make(map[string]*Package),
		ctxt:   ctxt,
	}, nil
}

// Root reports the module root directory.
func (l *Loader) Root() string { return l.root }

// SetGOARCH overrides the architecture used for build-constraint
// evaluation (file suffixes like _amd64.go and //go:build lines), so a
// load can resolve a different port's file set than the host's — e.g.
// the portable fallback kernels instead of the amd64 assembly ones.
// Must be called before the first load; already-memoized packages keep
// the constraint set they were loaded under.
func (l *Loader) SetGOARCH(arch string) { l.ctxt.GOARCH = arch }

// Module reports the module path.
func (l *Loader) Module() string { return l.module }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Import implements types.Importer: module-internal paths load from the
// repository tree, everything else falls through to the stdlib source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// load loads (or returns the memoized) module package for path.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, err := l.loadDir(l.dirFor(path), path)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// LoadDir parses and type-checks the non-test Go files of dir as the
// package importPath, honoring build constraints for the current
// GOOS/GOARCH. Used both for repository packages and for test
// fixtures, whose synthetic import paths place them inside whatever
// analyzer scope the test wants to exercise.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	return l.loadDir(dir, importPath)
}

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	names = append(names, bp.CgoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// LoadAll walks the module tree and loads every buildable non-test
// package, skipping testdata, hidden, and underscore-prefixed
// directories. Packages are returned sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		path := l.module
		if rel != "." {
			path = l.module + "/" + filepath.ToSlash(rel)
		}
		if _, err := l.ctxt.ImportDir(dir, 0); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			return nil, fmt.Errorf("analysis: %s: %w", dir, err)
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}
