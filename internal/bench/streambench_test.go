package bench

import (
	"testing"
)

// The gate semantics live in cmd/nessa-bench; here we pin the artifact
// shape and the properties the gates read, at a small spec so the test
// stays fast.
func TestStreamingBenchArtifact(t *testing.T) {
	spec := DefaultStreamingBenchSpec(true)
	spec.Records, spec.DetRecords = 20_000, 5_000
	spec.RefRecords, spec.RefK = 600, 20
	spec.K, spec.ChunkRecords = 200, 2048
	res, err := RunStreamingBench(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IdenticalSubsets {
		t.Error("streaming selection diverged across worker counts")
	}
	if res.Scan.FracOfBound < StreamingBandwidthGate {
		t.Errorf("scan achieved %.3f of the sequential bound, gate is %.2f",
			res.Scan.FracOfBound, StreamingBandwidthGate)
	}
	if res.Stats.StateBytes > res.Stats.BudgetBytes {
		t.Errorf("selection state %d bytes over the %d-byte on-chip budget",
			res.Stats.StateBytes, res.Stats.BudgetBytes)
	}
	if res.QualityRatio < StreamingQualityGate {
		t.Errorf("quality ratio %.3f below the %.2f gate", res.QualityRatio, StreamingQualityGate)
	}
	if st := res.Stats; st.RungVisits == 0 || st.RungPruned == 0 || st.RungAccepts == 0 || st.RungAccepts > st.RungScans {
		t.Errorf("ladder counters not populated: visits %d pruned %d scans %d accepts %d",
			st.RungVisits, st.RungPruned, st.RungScans, st.RungAccepts)
	}
	if frac := res.ScanFraction(); frac > StreamingScanGate {
		t.Errorf("%.3f of rung visits scanned the reservoir, gate is %.2f", frac, StreamingScanGate)
	}
	if res.Scan.Records != spec.Records {
		t.Errorf("scanned %d records, want %d", res.Scan.Records, spec.Records)
	}
	if res.DatasetBytes != int64(spec.Records)*spec.RecordBytes {
		t.Errorf("dataset bytes %d, want %d", res.DatasetBytes, int64(spec.Records)*spec.RecordBytes)
	}
	if res.Stats.SketchShrinks == 0 || res.Stats.SketchCapture <= 0 {
		t.Errorf("sketch never engaged: %d shrinks, capture %.3f",
			res.Stats.SketchShrinks, res.Stats.SketchCapture)
	}

	tab := StreamingBenchTable(res)
	if tab.ID != "bench-streaming" || len(tab.Rows) == 0 {
		t.Errorf("table id %q with %d rows, want bench-streaming", tab.ID, len(tab.Rows))
	}
}
