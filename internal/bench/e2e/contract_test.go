package e2e

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the module root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the tables this
// package prints from to each other, in both directions, and to the
// limits the benchmark contract sets.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}

	if want := []string{"cmd/nessa-e2e", "internal/bench/e2e"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths %v, want %v", f.Paths, want)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", f.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	named := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	ws := Workloads(false)
	if len(f.Workloads) != len(ws) || len(ws) < 2 || len(ws) > 8 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		named(w.Name)
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, code has {%s %s}", i, f.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if len(f.EndToEnd) != len(EndToEnd) || len(EndToEnd) > 16 {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code prints %d (limit 16)", len(f.EndToEnd), len(EndToEnd))
	}
	setup := false
	for i, d := range EndToEnd {
		named(d.Name)
		if got := f.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: file has %+v, code has %+v", i, got, d)
		}
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract's limits", d)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}

	if len(f.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code prints %d (limit 128)", len(f.PerLayer), len(PerLayer))
	}
	for i, d := range PerLayer {
		named(d.Name)
		if got := f.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: file has %+v, code has %+v", i, got, d)
		}
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks the contract's limits", d)
		}
	}
	for n := range Deterministic {
		if !seen[n] {
			t.Errorf("Deterministic names %q, which is not an end-to-end metric", n)
		}
	}
}
