package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modelArtifacts are the registry entries that evaluate the calibrated
// device models, the FPGA estimator and two short seeded training runs:
// no wall clock and no accuracy sweep reaches their cells, so each one
// regenerates its committed CSV exactly.
var modelArtifacts = []string{
	"table1", "figure1", "figure2", "table4", "figure6", "figure4",
	"ablation-dse", "ablation-cluster", "ablation-energy", "ablation-scaleout",
	"ablation-partition", "ablation-bits",
}

// TestModelArtifactsMatchResults renders every model artifact and
// compares its CSV with results/<id>.csv byte for byte. A change to a
// device model or to the epoch pricing that moves a published number
// fails here by file and line, and updates the committed CSV on purpose.
func TestModelArtifactsMatchResults(t *testing.T) {
	registry := map[string]Artifact{}
	for _, a := range Artifacts() {
		registry[a.ID] = a
	}
	for _, id := range modelArtifacts {
		t.Run(id, func(t *testing.T) {
			a, ok := registry[id]
			if !ok {
				t.Fatalf("artifact %q is not in the registry", id)
			}
			tab, _, err := a.Run(Params{})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := tab.CSV(&got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "results", id+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := range max(len(g), len(w)) {
				var gl, wl string
				if i < len(g) {
					gl = g[i]
				}
				if i < len(w) {
					wl = w[i]
				}
				if gl != wl {
					t.Fatalf("results/%s.csv line %d:\n got  %q\n want %q", id, i+1, gl, wl)
				}
			}
		})
	}
}
