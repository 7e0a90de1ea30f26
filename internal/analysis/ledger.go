package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The compiler-evidence ledger: a committed, per-package summary of
// what the instrumented build proved (results/COMPILER_evidence.json).
// Where the findings gate answers "is the tree clean right now", the
// ledger makes the *accepted* machine-level state diffable PR over PR:
// a new escape waiver, a kernel that fell out of the inline budget, or
// a bounds check creeping back into a hot loop shows up as a counted
// regression against the committed file even though the findings gate
// (which honors the waiver) stays green.

// Ledger metric names. Each carries a direction: +1 means an increase
// is a regression (accepted debt grew), -1 means a decrease is a
// regression (proven coverage shrank), 0 is informational (logged on
// change, never failed).
const (
	MetricHotpathFuncs    = "hotpath_functions"    // info: escapecheck coverage breadth
	MetricEscapesWaived   = "escapes_waived"       // +1: //nessa:alloc-ok'd heap escapes
	MetricInlinable       = "inlinable_kernels"    // -1: //nessa:inline functions gc can inline
	MetricHotCallsInlined = "hot_calls_inlined"    // -1: annotated callees inlined at hot sites
	MetricHotCallsWaived  = "hot_calls_waived"     // +1: //nessa:inline-ok'd non-inlined hot sites
	MetricBCEWaived       = "bounds_checks_waived" // +1: //nessa:bce-ok'd surviving bounds checks
)

// ledgerDirections maps each metric to its regression direction.
var ledgerDirections = map[string]int{
	MetricHotpathFuncs:    0,
	MetricEscapesWaived:   +1,
	MetricInlinable:       -1,
	MetricHotCallsInlined: -1,
	MetricHotCallsWaived:  +1,
	MetricBCEWaived:       +1,
}

// PackageCounts is one package's evidence tallies, keyed by metric.
type PackageCounts map[string]int

// Ledger is the decoded form of results/COMPILER_evidence.json.
type Ledger struct {
	GoVersion string                   `json:"go"`
	Packages  map[string]PackageCounts `json:"packages"`
}

// NewLedger returns an empty ledger for the given toolchain.
func NewLedger(goVersion string) *Ledger {
	return &Ledger{GoVersion: goVersion, Packages: make(map[string]PackageCounts)}
}

// Add bumps a metric for a package.
func (l *Ledger) Add(pkg, metric string, delta int) {
	if l.Packages == nil {
		l.Packages = make(map[string]PackageCounts)
	}
	if l.Packages[pkg] == nil {
		l.Packages[pkg] = make(PackageCounts)
	}
	l.Packages[pkg][metric] += delta
}

// LoadLedger reads a ledger file. A missing file decodes as an empty
// ledger so first-time generation needs no special case.
func LoadLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewLedger(""), nil
	}
	if err != nil {
		return nil, err
	}
	l := NewLedger("")
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fmt.Errorf("ledger %s: %v", path, err)
	}
	return l, nil
}

// Write serializes the ledger to path with deterministic key order
// (encoding/json sorts map keys), creating parent directories.
func (l *Ledger) Write(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompareLedgers diffs the freshly computed ledger against the
// committed one. Regressions (debt up, coverage down) must fail CI;
// improvements and informational changes are returned separately so
// the caller can log them and move on — the committed file is
// regenerated deliberately, with review, via -write-ledger.
func CompareLedgers(committed, current *Ledger) (regressions, improvements []string) {
	if committed.GoVersion != "" && committed.GoVersion != current.GoVersion {
		improvements = append(improvements, fmt.Sprintf(
			"toolchain changed %s -> %s (counts may shift; regenerate the ledger if so)",
			committed.GoVersion, current.GoVersion))
	}
	pkgs := make(map[string]bool)
	for p := range committed.Packages {
		pkgs[p] = true
	}
	for p := range current.Packages {
		pkgs[p] = true
	}
	names := make([]string, 0, len(pkgs))
	for p := range pkgs {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, pkg := range names {
		old, cur := committed.Packages[pkg], current.Packages[pkg]
		metrics := make(map[string]bool)
		for m := range old {
			metrics[m] = true
		}
		for m := range cur {
			metrics[m] = true
		}
		mnames := make([]string, 0, len(metrics))
		for m := range metrics {
			mnames = append(mnames, m)
		}
		sort.Strings(mnames)
		for _, m := range mnames {
			ov, cv := old[m], cur[m]
			if ov == cv {
				continue
			}
			dir := ledgerDirections[m]
			line := fmt.Sprintf("%s: %s %d -> %d", pkg, m, ov, cv)
			switch {
			case dir > 0 && cv > ov, dir < 0 && cv < ov:
				regressions = append(regressions, line)
			default:
				improvements = append(improvements, line)
			}
		}
	}
	return regressions, improvements
}
