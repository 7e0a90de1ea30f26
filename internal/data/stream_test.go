package data

import (
	"encoding/binary"
	"testing"
)

func streamSpec() Spec {
	return Spec{
		Name: "stream-test", Classes: 5, BytesPerImage: 128,
		FeatureDim: 16, Spread: 0.1, HardFrac: 0.2, NoiseFrac: 0.05, Seed: 71,
		Modes: 3, ModeSpread: 1.0, ModeDecay: 0.6,
	}
}

// TestRecordStreamFillDeterministic: Fill is a pure function of the
// range — re-reads, unaligned reads, and whole-object reads all agree.
func TestRecordStreamFillDeterministic(t *testing.T) {
	rs, err := NewRecordStream(streamSpec(), 50)
	if err != nil {
		t.Fatal(err)
	}
	whole := make([]byte, rs.Size())
	rs.Fill(0, whole)
	again := make([]byte, rs.Size())
	rs.Fill(0, again)
	for i := range whole {
		if whole[i] != again[i] {
			t.Fatalf("fill not deterministic at byte %d", i)
		}
	}
	// Unaligned span: must match the corresponding slice of the whole.
	span := make([]byte, 300)
	off := int64(37)
	rs.Fill(off, span)
	for i := range span {
		if span[i] != whole[off+int64(i)] {
			t.Fatalf("unaligned fill diverges at byte %d", i)
		}
	}
}

// TestRecordStreamRecordsValid: every synthesized record passes the
// codec's CRC and carries the label that Sample(i) draws.
func TestRecordStreamRecordsValid(t *testing.T) {
	rs, err := NewRecordStream(streamSpec(), 200)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, rs.RecordBytes())
	feats := make([]float32, rs.Spec.FeatureDim)
	for i := 0; i < rs.N; i++ {
		rs.EncodeRecord(i, rec)
		if err := VerifyRecord(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		label := int(binary.LittleEndian.Uint16(rec[0:2]))
		if got := rs.Sample(i, feats); got != label {
			t.Fatalf("record %d: Sample label %d, encoded %d", i, got, label)
		}
	}
}

func TestRecordStreamValidation(t *testing.T) {
	if _, err := NewRecordStream(streamSpec(), 0); err == nil {
		t.Fatal("zero-length stream accepted")
	}
	spec := streamSpec()
	spec.FeatureDim = 0
	if _, err := NewRecordStream(spec, 10); err == nil {
		t.Fatal("spec without simulation scale accepted")
	}
}
