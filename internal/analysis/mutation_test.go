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
