package analysis

import (
	"path/filepath"
	"testing"
)

// tensorFilesFor loads internal/tensor with the loader pinned to the
// given GOARCH and returns the base names of the files that entered
// the package. A nil-error load is the type-check cleanliness proof.
func tensorFilesFor(t *testing.T, arch string) map[string]bool {
	t.Helper()
	root := repoRoot(t)
	l := testLoader(t, root)
	l.SetGOARCH(arch)
	pkg, err := l.LoadDir(filepath.Join(root, "internal", "tensor"), "nessa/internal/tensor")
	if err != nil {
		t.Fatalf("GOARCH=%s: loading internal/tensor: %v", arch, err)
	}
	files := make(map[string]bool)
	for _, f := range pkg.Files {
		files[filepath.Base(pkg.Fset.Position(f.Pos()).Filename)] = true
	}
	return files
}

// TestLoaderResolvesBuildConstraints pins the loader's constraint
// evaluation on the build-gated tensor kernels: the amd64 load must
// select the assembly dispatch file, every other port the portable
// fallback — and both variants must type-check cleanly.
func TestLoaderResolvesBuildConstraints(t *testing.T) {
	cases := []struct {
		arch    string
		want    string
		wantNot string
	}{
		{"amd64", "gemm_amd64.go", "gemm_noasm.go"},
		{"arm64", "gemm_noasm.go", "gemm_amd64.go"},
		{"riscv64", "gemm_noasm.go", "gemm_amd64.go"},
	}
	for _, c := range cases {
		t.Run(c.arch, func(t *testing.T) {
			files := tensorFilesFor(t, c.arch)
			if !files[c.want] {
				t.Errorf("GOARCH=%s: %s not loaded; got %v", c.arch, c.want, files)
			}
			if files[c.wantNot] {
				t.Errorf("GOARCH=%s: %s loaded but should be constrained out", c.arch, c.wantNot)
			}
		})
	}
}
