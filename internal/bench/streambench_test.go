package bench

import (
	"testing"
)

// The artifact's shape and its gates (none is a host timing), at a small
// spec so the test stays fast.
func TestStreamingBenchArtifact(t *testing.T) {
	spec := DefaultStreamingBenchSpec(true)
	spec.Records, spec.DetRecords = 20_000, 5_000
	spec.RefRecords, spec.RefK = 600, 20
	spec.K, spec.ChunkRecords = 200, 2048
	res, gates, err := RunStreamingBench(spec)
	if err != nil {
		t.Fatal(err)
	}
	failedGates(t, gates)
	if len(gates) != 5 {
		t.Errorf("%d gates, want 5", len(gates))
	}
	if st := res.Stats; st.RungVisits == 0 || st.RungPruned == 0 || st.RungAccepts == 0 || st.RungAccepts > st.RungScans {
		t.Errorf("ladder counters not populated: visits %d pruned %d scans %d accepts %d",
			st.RungVisits, st.RungPruned, st.RungScans, st.RungAccepts)
	}
	if res.Scan.Records != spec.Records {
		t.Errorf("scanned %d records, want %d", res.Scan.Records, spec.Records)
	}
	if res.DatasetBytes != int64(spec.Records)*spec.RecordBytes {
		t.Errorf("dataset bytes %d, want %d", res.DatasetBytes, int64(spec.Records)*spec.RecordBytes)
	}

	tab := streamingBenchTable(res)
	if tab.ID != "bench-streaming" || len(tab.Rows) == 0 {
		t.Errorf("table id %q with %d rows, want bench-streaming", tab.ID, len(tab.Rows))
	}
}
