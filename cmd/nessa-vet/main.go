// Command nessa-vet runs the repository's custom static-analysis
// suite (internal/analysis): six analyzers that machine-check the
// determinism, hot-path-allocation, map-order, error-hygiene,
// concurrency, and scratch-lifetime contracts at the source level,
// plus a compiler-evidence mode that
// verifies the hot-path contracts against what gc actually emitted.
//
// Usage:
//
//	nessa-vet [-run name[,name...]] [-json] [packages]
//	nessa-vet -compiler [-run ...] [-json] [packages]
//
// With no package arguments (or the pattern "./...") every buildable
// non-test package in the module is analyzed. Individual directories
// may be named instead. The command exits 0 when the tree is clean,
// 1 with one file:line:col diagnostic per line otherwise, and 2 on a
// load or usage error. -run names analyzers of the suite the other
// flags select: a compiler-suite name without -compiler (or a
// source-suite name with it) is a usage error, not an empty run.
//
// -json emits each finding as one JSON object per line (analyzer,
// severity, file, line, col, message, and — when a //nessa:* waiver
// directive applies to the rule — a suggestion naming it, so editors
// can render a quick-fix) instead of the text form.
//
// -compiler switches to the compiler-evidence suite (inlinegate,
// bcecheck): the module is rebuilt with
// -gcflags='-m=2 -d=ssa/check_bce/debug=1' (cached after the first
// compile), the diagnostics are parsed into position-keyed facts, and
// the analyzers cross-check them against the //nessa:hotpath and
// //nessa:inline contracts. Because gc's diagnostic
// formats are toolchain-pinned, an unvalidated toolchain makes the
// mode skip cleanly with a warning (exit 0) rather than mis-parse.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nessa/internal/analysis"
)

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names of the selected suite to run (default: the whole suite)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	compiler := flag.Bool("compiler", false, "run the compiler-evidence suite against an instrumented build")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nessa-vet [-compiler] [-run name[,name...]] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		printList(os.Stdout)
		return
	}
	analyzers, err := selectAnalyzers(*runList, *compiler)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nessa-vet:", err)
		os.Exit(2)
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nessa-vet:", err)
		os.Exit(2)
	}

	var evidence *analysis.Evidence
	if *compiler {
		evidence, err = analysis.CollectEvidence(root)
		if errors.Is(err, analysis.ErrToolchain) {
			// The diagnostic formats this mode parses are validated
			// per toolchain release; on an unpinned toolchain the gate
			// skips cleanly rather than mis-parse and cry wolf.
			fmt.Fprintf(os.Stderr, "nessa-vet: skipping compiler-evidence checks: %v\n", err)
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nessa-vet:", err)
			os.Exit(2)
		}
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nessa-vet:", err)
		os.Exit(2)
	}

	pkgs, err := loadTargets(loader, root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "nessa-vet:", err)
		os.Exit(2)
	}

	var findings []analysis.Finding
	if *compiler {
		findings = analysis.RunCompiler(pkgs, analyzers, evidence)
	} else {
		findings = analysis.Run(pkgs, analyzers)
	}

	for _, f := range findings {
		if *jsonOut {
			printJSON(f)
		} else {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "nessa-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// selectAnalyzers resolves -run against the suite -compiler selects;
// an empty list means the whole suite. A name from the other suite is
// an error: the compiler analyzers report nothing without evidence and
// the source analyzers are not run with it, so either mix would print
// a false "clean".
func selectAnalyzers(runList string, compiler bool) ([]*analysis.Analyzer, error) {
	suite := analysis.All()
	if compiler {
		suite = analysis.CompilerAll()
	}
	if runList == "" {
		return suite, nil
	}
	named, err := analysis.ByName(strings.Split(runList, ","))
	if err != nil {
		return nil, err
	}
	inSuite := make(map[string]bool, len(suite))
	for _, a := range suite {
		inSuite[a.Name] = true
	}
	for _, a := range named {
		if inSuite[a.Name] {
			continue
		}
		if compiler {
			return nil, fmt.Errorf("-run %s: a source-suite analyzer; drop -compiler to run it", a.Name)
		}
		return nil, fmt.Errorf("-run %s: a compiler-suite analyzer; add -compiler to run it", a.Name)
	}
	return named, nil
}

// printList writes every analyzer of both suites with a suite column.
// Both are always listed, not just the suite the other flags would
// run: -list answers "what can -run name?", and the suite column says
// whether the name needs -compiler.
func printList(w io.Writer) {
	for _, a := range analysis.All() {
		fmt.Fprintf(w, "%-12s %-9s %s\n", a.Name, "source", a.Doc)
	}
	for _, a := range analysis.CompilerAll() {
		fmt.Fprintf(w, "%-12s %-9s %s\n", a.Name, "compiler", a.Doc)
	}
}

// printJSON emits one finding as a single-line JSON object.
func printJSON(f analysis.Finding) {
	out, err := json.Marshal(analysis.ToJSON(f))
	if err != nil {
		fmt.Fprintln(os.Stderr, "nessa-vet:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
}

// loadTargets resolves the command-line package arguments. The empty
// list and the "./..." pattern mean the whole module; anything else is
// taken as a directory relative to the current working directory.
func loadTargets(loader *analysis.Loader, root string, args []string) ([]*analysis.Package, error) {
	all := len(args) == 0
	for _, a := range args {
		if a == "./..." || a == "..." {
			all = true
		}
	}
	if all {
		return loader.LoadAll()
	}
	var pkgs []*analysis.Package
	for _, arg := range args {
		dir, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("package %q is outside the module rooted at %s", arg, root)
		}
		path := loader.Module()
		if rel != "." {
			path = loader.Module() + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// findModuleRoot walks up from the working directory to the first
// directory containing go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
