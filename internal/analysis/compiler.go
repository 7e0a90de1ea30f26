// Compiler-evidence collection for the analysis suite. The
// source-level analyzers check what the code *says*; the
// compiler-evidence layer checks what gc actually *emits*. One
// instrumented build of the module —
//
//	go build -gcflags='-m=2 -d=ssa/check_bce/debug=1' ./...
//
// — yields two diagnostic streams on stderr, which this file parses
// into position-keyed facts:
//
//   - inlining decisions ("can inline F with cost N", "cannot inline
//     F: cost N exceeds budget M", "inlining call to F")
//   - surviving bounds checks ("Found IsInBounds", from the ssa
//     check_bce debug pass)
//
// Diagnostic formats are not a stable API, so evidence collection is
// pinned to the toolchains it has been validated against (see
// ToolchainSupported); an unknown toolchain yields ErrToolchain and
// the caller skips with a warning rather than mis-parsing.
package analysis

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// CompilerFlags is the -gcflags value of the instrumented build. The
// build cache stores and replays compiler diagnostics, so repeated
// collections after the first compile only pay cache replay.
const CompilerFlags = "-m=2 -d=ssa/check_bce/debug=1"

// ErrToolchain reports that the active go toolchain is not one the
// diagnostic parser has been validated against. Callers treat it as
// "skip with a warning", never as a failure.
var ErrToolchain = errors.New("analysis: unsupported toolchain for compiler evidence")

// toolchainRe extracts the minor version from strings like "go1.24.0",
// "go1.22", or "devel go1.25-abcdef".
var toolchainRe = regexp.MustCompile(`go1\.(\d+)`)

// ToolchainSupported reports whether the gc diagnostic formats of the
// given toolchain version are pinned by this parser. The accepted
// range covers the formats verified stable for -m=2 and the check_bce
// debug output.
func ToolchainSupported(version string) bool {
	m := toolchainRe.FindStringSubmatch(version)
	if m == nil {
		return false
	}
	minor, err := strconv.Atoi(m[1])
	if err != nil {
		return false
	}
	return minor >= 22 && minor <= 26
}

// FactKind classifies one compiler-evidence fact.
type FactKind int

const (
	// FactCanInline: the function declared at this position is
	// inlinable; Detail carries "cost N".
	FactCanInline FactKind = iota
	// FactCannotInline: the function declared at this position is not
	// inlinable; Detail carries gc's reason (e.g. "cost 105 exceeds
	// budget 80").
	FactCannotInline
	// FactInlineCall: the call at this position was inlined; Name is
	// the callee.
	FactInlineCall
	// FactBoundsCheck: a bounds check survived SSA optimization at
	// this position; Name is IsInBounds or IsSliceInBounds.
	FactBoundsCheck
)

func (k FactKind) String() string {
	switch k {
	case FactCanInline:
		return "can-inline"
	case FactCannotInline:
		return "cannot-inline"
	case FactInlineCall:
		return "inline-call"
	case FactBoundsCheck:
		return "bounds-check"
	}
	return "unknown"
}

// Fact is one parsed compiler diagnostic, keyed by source position.
// File is absolute and cleaned.
type Fact struct {
	Kind   FactKind
	File   string
	Line   int
	Col    int
	Name   string // subject: variable, function, callee or check kind
	Detail string // free-form compiler justification (cost, reason)
}

// Evidence is the parsed result of one instrumented build: every
// retained fact, indexed by absolute file path.
type Evidence struct {
	files map[string][]Fact
	// inlineDecls maps file -> line -> function name for every
	// //nessa:inline declaration seen by RunCompiler, so the
	// call-site rule resolves annotated callees across packages.
	inlineDecls map[string]map[int]string
}

// FactsIn returns the facts recorded for the given absolute file path,
// in diagnostic-stream order.
func (e *Evidence) FactsIn(file string) []Fact {
	return e.files[filepath.Clean(file)]
}

// Span returns the facts in file whose line lies in [lo, hi].
func (e *Evidence) Span(file string, lo, hi int) []Fact {
	var out []Fact
	for _, f := range e.FactsIn(file) {
		if f.Line >= lo && f.Line <= hi {
			out = append(out, f)
		}
	}
	return out
}

// markInline records a //nessa:inline declaration for cross-package
// call-site resolution.
func (e *Evidence) markInline(file string, line int, name string) {
	if e.inlineDecls == nil {
		e.inlineDecls = make(map[string]map[int]string)
	}
	file = filepath.Clean(file)
	if e.inlineDecls[file] == nil {
		e.inlineDecls[file] = make(map[int]string)
	}
	e.inlineDecls[file][line] = name
}

// inlineDeclAt reports whether the declaration at file:line is marked
// //nessa:inline, and its name.
func (e *Evidence) inlineDeclAt(file string, line int) (string, bool) {
	name, ok := e.inlineDecls[filepath.Clean(file)][line]
	return name, ok
}

// CollectEvidence runs the instrumented build of the module rooted at
// root and parses the diagnostics. It returns ErrToolchain (wrapped)
// when the active toolchain's formats are not pinned, and a hard error
// when the build itself fails.
func CollectEvidence(root string) (*Evidence, error) {
	version, err := goEnvVersion(root)
	if err != nil {
		return nil, err
	}
	return collectEvidence(root, version)
}

// collectEvidence is the version-injectable core of CollectEvidence,
// split out so tests can drive the toolchain guard directly.
func collectEvidence(root, version string) (*Evidence, error) {
	if !ToolchainSupported(version) {
		return nil, fmt.Errorf("%w: %q (validated range go1.22–go1.26)", ErrToolchain, version)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if resolved, err := filepath.EvalSymlinks(abs); err == nil {
		abs = resolved
	}
	cmd := exec.Command("go", "build", "-gcflags="+CompilerFlags, "./...")
	cmd.Dir = abs
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("analysis: starting instrumented build: %w", err)
	}
	facts, tail, perr := parseDiagnostics(abs, stderr)
	werr := cmd.Wait()
	if werr != nil {
		return nil, fmt.Errorf("analysis: instrumented build failed (%v):\n%s", werr, strings.Join(tail, "\n"))
	}
	if perr != nil {
		return nil, perr
	}
	ev := &Evidence{files: make(map[string][]Fact)}
	for _, f := range facts {
		ev.files[f.File] = append(ev.files[f.File], f)
	}
	return ev, nil
}

// goEnvVersion asks the go command (the one that will run the
// instrumented build, which may differ from the toolchain this binary
// was built with) for its version.
func goEnvVersion(root string) (string, error) {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("analysis: go env GOVERSION: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// Diagnostic-line shapes. Position lines are `path:line:col: message`.
var (
	posLineRe = regexp.MustCompile(`^(.+?):(\d+):(\d+): (.+)$`)
	costRe    = regexp.MustCompile(`^can inline (.+?) with cost (\d+)`)
)

// parseDiagnostics parses one instrumented-build stderr stream into
// deduplicated facts, dropping anything attributed to files outside
// root. It also returns the stream's last plain lines, the context of
// a build-failure error.
func parseDiagnostics(root string, r io.Reader) ([]Fact, []string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var (
		facts []Fact
		tail  []string
		seen  = make(map[Fact]bool)
	)
	for sc.Scan() {
		line := sc.Text()
		tail = appendTail(tail, line)
		if f, ok := parseDiagnosticLine(root, line); ok && !seen[f] {
			seen[f] = true
			facts = append(facts, f)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, tail, fmt.Errorf("analysis: reading build diagnostics: %w", err)
	}
	return facts, tail, nil
}

// appendTail keeps a bounded ring of recent lines for build-failure
// error messages.
func appendTail(tail []string, line string) []string {
	const keep = 30
	// Flow-explanation lines are useless context for a failed build;
	// keep only plain diagnostic/error lines.
	if strings.HasPrefix(line, "\t") || strings.HasPrefix(line, " ") {
		return tail
	}
	tail = append(tail, line)
	if len(tail) > keep {
		tail = tail[1:]
	}
	return tail
}

// parseDiagnosticLine classifies one stderr line. The bool result is
// false for lines that carry no retained fact (section headers, flow
// explanations, uninteresting messages, files outside root).
func parseDiagnosticLine(root, line string) (Fact, bool) {
	if strings.HasPrefix(line, "\t") || strings.HasPrefix(line, " ") || strings.HasPrefix(line, "#") {
		return Fact{}, false
	}
	m := posLineRe.FindStringSubmatch(line)
	if m == nil {
		return Fact{}, false
	}
	file, ok := canonPath(root, m[1])
	if !ok {
		return Fact{}, false
	}
	ln, _ := strconv.Atoi(m[2])
	col, _ := strconv.Atoi(m[3])
	msg := m[4]
	fact := Fact{File: file, Line: ln, Col: col}
	switch {
	case strings.HasPrefix(msg, "inlining call to "):
		fact.Kind = FactInlineCall
		fact.Name = strings.TrimPrefix(msg, "inlining call to ")
	case strings.HasPrefix(msg, "can inline "):
		cm := costRe.FindStringSubmatch(msg)
		if cm == nil {
			return Fact{}, false
		}
		fact.Kind = FactCanInline
		fact.Name = cm[1]
		fact.Detail = "cost " + cm[2]
	case strings.HasPrefix(msg, "cannot inline "):
		rest := strings.TrimPrefix(msg, "cannot inline ")
		name, reason, found := strings.Cut(rest, ": ")
		if !found {
			return Fact{}, false
		}
		fact.Kind = FactCannotInline
		fact.Name = name
		fact.Detail = reason
	case msg == "Found IsInBounds" || msg == "Found IsSliceInBounds":
		fact.Kind = FactBoundsCheck
		fact.Name = strings.TrimPrefix(msg, "Found ")
	default:
		return Fact{}, false
	}
	return fact, true
}

// canonPath resolves a diagnostic path (root-relative in -m output,
// absolute for files outside the module) to a cleaned absolute path, rejecting
// files outside root (stdlib sources, <autogenerated>).
func canonPath(root, p string) (string, bool) {
	if strings.HasPrefix(p, "<") { // <autogenerated>, <unknown line number>
		return "", false
	}
	if !filepath.IsAbs(p) {
		p = filepath.Join(root, p)
	}
	p = filepath.Clean(p)
	if p != root && !strings.HasPrefix(p, root+string(filepath.Separator)) {
		return "", false
	}
	return p, true
}
