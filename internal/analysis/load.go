// Package loading for the analysis suite. The loader resolves and
// type-checks repository packages using only the standard library:
// go/build for build-constraint evaluation, go/parser for syntax, and
// go/types for type information. Imports within this module are
// resolved straight from the repository tree; standard-library imports
// are delegated to the stdlib source importer (go/importer, compiler
// "source"), so the suite needs no pre-compiled export data and no
// golang.org/x/tools dependency — the same stdlib-only rule the rest of
// the repository follows.
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
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
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
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
}

// newLoader returns a loader for the module rooted at root, whose
// module path is read from root/go.mod. The stdlib importer must share
// fset, so several loaders can reuse one type-checked standard library.
func newLoader(root string, fset *token.FileSet, std types.Importer) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:   fset,
		root:   abs,
		module: mod,
		std:    std,
		pkgs:   make(map[string]*Package),
	}, nil
}

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
	return l.LoadDir(l.dirFor(path), path)
}

// LoadDir parses and type-checks the non-test Go files of dir as the
// package importPath, honoring build constraints for the current
// GOOS/GOARCH. Used both for repository packages and for test
// fixtures, whose synthetic import paths place them inside whatever
// analyzer scope the test wants to exercise.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	// go/build only evaluates build constraints; the loader parses
	// every file itself.
	bp, err := build.ImportDir(dir, 0)
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
		if _, err := build.ImportDir(dir, 0); err != nil {
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
