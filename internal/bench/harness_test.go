package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func decodeStrict(t *testing.T, path string, into any) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// The committed artifacts are the schema: every key they hold must still
// have a field in its result type, or a regenerated file drops history
// and the previous-artifact carry reads zeros.
func TestCommittedArtifactsParseStrictly(t *testing.T) {
	for file, into := range map[string]any{
		"BENCH_selection.json": &SelectionBenchResult{},
		"BENCH_training.json":  &TrainingBenchResult{},
		"BENCH_streaming.json": &StreamingBenchResult{},
		"BENCH_faults.json":    &FaultBenchResult{},
		"BENCH_recovery.json":  &RecoveryBenchResult{},
	} {
		decodeStrict(t, filepath.Join("..", "..", "results", file), into)
		if at := reflect.ValueOf(into).Elem().FieldByName("GeneratedAt").String(); at == "" {
			t.Errorf("%s: generatedAt did not decode", file)
		}
	}
}

func TestWriteArtifactCarriesPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "BENCH_streaming.json")
	write := func(spec StreamingBenchSpec, rate float64) *StreamingBenchResult {
		res := &StreamingBenchResult{host: currentHost(), Spec: spec, WallSeconds: 1, WallRecordsPerSec: rate}
		if err := writeArtifact(path, res, carryStreaming); err != nil {
			t.Fatal(err)
		}
		return res
	}
	spec := DefaultStreamingBenchSpec(true)

	first := write(spec, 100)
	if first.Previous != nil {
		t.Error("first write carried a previous artifact from nowhere")
	}
	var back StreamingBenchResult
	decodeStrict(t, path, &back)
	if !reflect.DeepEqual(&back, first) {
		t.Errorf("artifact did not round-trip:\n got %+v\nwant %+v", back, *first)
	}

	second := write(spec, 200)
	if p := second.Previous; p == nil || p.WallRecordsPerSec != 100 || p.GeneratedAt != first.GeneratedAt || p.CPUs != first.CPUs {
		t.Errorf("second write carried %+v, want the first artifact's throughput", p)
	}
	decodeStrict(t, path, &back)
	if back.Previous == nil || back.Previous.WallRecordsPerSec != 100 {
		t.Error("the carried block was not written")
	}

	spec.Records++
	if third := write(spec, 300); third.Previous != nil {
		t.Error("carried an artifact measured at a different spec")
	}
}

func TestBestOfInterleaved(t *testing.T) {
	var order strings.Builder
	scripted := func(tag byte, spans ...time.Duration) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			order.WriteByte(tag)
			d := spans[0]
			spans = spans[1:]
			return d, nil
		}
	}
	// The first span of each side is the warm-up and must not count.
	a, b, err := bestOfInterleaved(3, scripted('a', 1, 9, 7, 8), scripted('b', 1, 5, 6, 4))
	if err != nil || a != 7 || b != 4 {
		t.Errorf("best = %d, %d (err %v), want 7, 4", a, b, err)
	}
	if order.String() != "abababab" {
		t.Errorf("run order %q, want strict alternation", order.String())
	}

	slow := func() error { time.Sleep(50 * time.Microsecond); return nil }
	if d, err := perCallDelta(1, slow, func() error { return nil }); err != nil || d != 0 {
		t.Errorf("delta of a cheaper path = %v (err %v), want clamped to 0", d, err)
	}
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Artifacts() {
		if seen[a.ID] {
			t.Errorf("artifact id %q registered twice", a.ID)
		}
		seen[a.ID] = true
		if strings.HasPrefix(a.ID, "bench-") != (a.File != "") {
			t.Errorf("%s: file %q — exactly the bench-* artifacts write one", a.ID, a.File)
		}
		if a.Blurb != "" || a.OnRequest {
			continue // trains or measures; driven through nessa-bench
		}
		tab, gates, err := a.Run(Params{})
		if err != nil || tab.ID != a.ID || len(gates) != 0 {
			t.Errorf("%s: table id %q, %d gates, err %v", a.ID, tab.ID, len(gates), err)
		}
	}
}
