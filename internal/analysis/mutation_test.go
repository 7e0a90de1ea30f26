package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// copyPkg copies the non-test Go files (and assembly) of srcDir into a
// temp dir, passing each file through mutate (nil copies verbatim).
func copyPkg(t *testing.T, srcDir string, mutate func(name string, src []byte) []byte) string {
	t.Helper()
	dst := t.TempDir()
	copyPackageDir(t, srcDir, dst, mutate)
	return dst
}

// analyzerFindings loads dir under importPath and runs one analyzer.
func analyzerFindings(t *testing.T, analyzer, dir, importPath string) []Finding {
	t.Helper()
	pkg, err := testLoader(t, repoRoot(t)).LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	az, err := ByName([]string{analyzer})
	if err != nil {
		t.Fatal(err)
	}
	return Run([]*Package{pkg}, az)
}

// TestInjectedScratchLeakCaught is the scratchlife acceptance mutation:
// a method returning a raw arena slice out of the model's forward
// scratch must be flagged; the pristine package stays silent.
func TestInjectedScratchLeakCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("package copies and repeated type checks are slow; skipped in -short mode")
	}
	root := repoRoot(t)
	srcDir := filepath.Join(root, "internal", "nn")
	const leak = "\n// LeakScratch exposes the forward arena without a contract.\n" +
		"func (m *MLP) LeakScratch() *tensor.Matrix { return m.acts[0] }\n"

	t.Run("arena-slice return is flagged", func(t *testing.T) {
		dir := copyPkg(t, srcDir, func(name string, src []byte) []byte {
			if name != "model.go" {
				return src
			}
			return append(src, []byte(leak)...)
		})
		findings := analyzerFindings(t, "scratchlife", dir, "nessa/internal/nn")
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, "returns pool/arena-backed scratch memory") {
				found = true
			} else {
				t.Errorf("unexpected extra finding: %s", f.String())
			}
		}
		if !found {
			t.Fatalf("injected arena leak was not flagged; findings: %v", findings)
		}
	})

	t.Run("pristine package is silent", func(t *testing.T) {
		dir := copyPkg(t, srcDir, nil)
		for _, f := range analyzerFindings(t, "scratchlife", dir, "nessa/internal/nn") {
			t.Errorf("pristine nn flagged: %s", f.String())
		}
	})
}

// TestInjectedUnlockWithoutLockCaught is the concurrency acceptance
// mutation: WorkerLocal.Range taking its lock only when a slot table
// exists leaves an Unlock reachable without a Lock. go test, go test
// -race and go vet all pass that mutation; the analyzer must flag it
// and nothing else, and the pristine package stays silent.
func TestInjectedUnlockWithoutLockCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("package copies and repeated type checks are slow; skipped in -short mode")
	}
	srcDir := filepath.Join(repoRoot(t), "internal", "parallel")
	const locked = "\tl.mu.Lock()\n\tp := l.slots.Load()\n\tl.mu.Unlock()\n"
	const mutated = "\tp := l.slots.Load()\n\tif p != nil {\n\t\tl.mu.Lock()\n\t\tp = l.slots.Load()\n\t}\n\tl.mu.Unlock()\n"

	t.Run("conditional lock is flagged", func(t *testing.T) {
		dir := copyPkg(t, srcDir, func(name string, src []byte) []byte {
			if name != "workerlocal.go" {
				return src
			}
			if !strings.Contains(string(src), locked) {
				t.Fatalf("WorkerLocal.Range no longer holds the mutated shape:\n%s", locked)
			}
			return []byte(strings.Replace(string(src), locked, mutated, 1))
		})
		findings := analyzerFindings(t, "concurrency", dir, "nessa/internal/parallel")
		if len(findings) != 1 || !strings.Contains(findings[0].Message, "l.mu.Unlock may run without a preceding Lock") {
			t.Fatalf("want exactly the injected unlock-without-lock finding, got %v", findings)
		}
	})

	t.Run("pristine package is silent", func(t *testing.T) {
		dir := copyPkg(t, srcDir, nil)
		for _, f := range analyzerFindings(t, "concurrency", dir, "nessa/internal/parallel") {
			t.Errorf("pristine parallel flagged: %s", f.String())
		}
	})
}
