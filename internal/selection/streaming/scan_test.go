package streaming

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"nessa/internal/data"
	"nessa/internal/smartssd"
)

func scanSpec() data.Spec {
	return data.Spec{
		Name: "scan-test", Classes: 4, BytesPerImage: 64,
		FeatureDim: 8, Spread: 0.1, Seed: 42,
		Modes: 2, ModeSpread: 1.0, ModeDecay: 0.6,
	}
}

func scanDevice(t *testing.T, n int) (*smartssd.Device, *data.RecordStream) {
	t.Helper()
	dev, err := smartssd.New()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := data.NewRecordStream(scanSpec(), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.StoreVirtualDataset("ds", rs.Size(), rs.Fill); err != nil {
		t.Fatal(err)
	}
	return dev, rs
}

// TestScanRecordsFull: a dense scan touches every record exactly once,
// in order, with the right payload, at near the sequential bound.
func TestScanRecordsFull(t *testing.T) {
	const n = 1000
	dev, rs := scanDevice(t, n)
	rec := rs.RecordBytes()
	next := 0
	st, err := ScanRecords(dev, ScanConfig{
		Object:       "ds",
		RecordBytes:  rec,
		Records:      n,
		ChunkRecords: 128,
		Verify:       func(buf []byte) error { return data.VerifyImage(buf, rec) },
	}, func(_, lo, hi int, base int64, buf []byte) error {
		if lo != next {
			t.Fatalf("chunk starts at %d, want %d", lo, next)
		}
		for i := lo; i < hi; i++ {
			off := (int64(i) - base) * rec
			label := int(binary.LittleEndian.Uint16(buf[off : off+2]))
			if want := rs.Label(i); label != want {
				t.Fatalf("record %d label %d, want %d", i, label, want)
			}
		}
		next = hi
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != n || next != n {
		t.Fatalf("processed %d/%d records, want %d", st.Records, next, n)
	}
	if st.Bytes != rec*int64(n) {
		t.Fatalf("read %d bytes, want %d", st.Bytes, rec*int64(n))
	}
	if st.FracOfBound < 0.95 {
		t.Fatalf("achieved %.3f of the sequential bound with no compute charged, want ≥ 0.95", st.FracOfBound)
	}
}

// TestScanRecordsCandidates: a sparse candidate list still visits each
// candidate once with contiguous span reads covering its chunk.
func TestScanRecordsCandidates(t *testing.T) {
	const n = 900
	dev, rs := scanDevice(t, n)
	rec := rs.RecordBytes()
	cands := make([]int, 0, n/3)
	for i := 0; i < n; i += 3 {
		cands = append(cands, i)
	}
	visited := 0
	st, err := ScanRecords(dev, ScanConfig{
		Object:       "ds",
		RecordBytes:  rec,
		Candidates:   cands,
		ChunkRecords: 100,
	}, func(_, lo, hi int, base int64, buf []byte) error {
		for ci := lo; ci < hi; ci++ {
			g := cands[ci]
			off := (int64(g) - base) * rec
			if off < 0 || off+rec > int64(len(buf)) {
				t.Fatalf("candidate %d (record %d) outside span buf (base %d, %d bytes)", ci, g, base, len(buf))
			}
			label := int(binary.LittleEndian.Uint16(buf[off : off+2]))
			if want := rs.Label(g); label != want {
				t.Fatalf("record %d label %d, want %d", g, label, want)
			}
			visited++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != len(cands) || st.Records != len(cands) {
		t.Fatalf("visited %d (stats %d), want %d", visited, st.Records, len(cands))
	}
}

// TestScanRecordsValidation: unsorted candidates and zero-size records
// are rejected before any I/O.
func TestScanRecordsValidation(t *testing.T) {
	dev, rs := scanDevice(t, 10)
	if _, err := ScanRecords(dev, ScanConfig{Object: "ds", RecordBytes: rs.RecordBytes(), Candidates: []int{3, 1}}, nil); err == nil {
		t.Fatal("unsorted candidates accepted")
	}
	if _, err := ScanRecords(dev, ScanConfig{Object: "ds", RecordBytes: 0, Records: 10}, nil); err == nil {
		t.Fatal("zero record size accepted")
	}
	if _, err := ScanRecords(dev, ScanConfig{Object: "missing", RecordBytes: rs.RecordBytes(), Records: 10}, nil); err == nil {
		t.Fatal("missing object accepted")
	}
}

// TestScanRecordsRecyclesBuffers: however many chunks a pass reads —
// with candidate spans of different lengths — it rotates at most three
// buffers, every chunk still carries the right bytes, and a process
// error part-way leaves the prefetcher able to finish (the drained
// chunks' buffers go back to the free list).
func TestScanRecordsRecyclesBuffers(t *testing.T) {
	const n = 4000
	dev, rs := scanDevice(t, n)
	rec := rs.RecordBytes()
	var cands []int
	for i := 0; i < n; i += 1 + i%5 { // uneven gaps: chunk spans differ in length
		cands = append(cands, i)
	}
	cfg := ScanConfig{Object: "ds", RecordBytes: rec, Candidates: cands, ChunkRecords: 64}
	seen := map[*byte]bool{}
	st, err := ScanRecords(dev, cfg, func(_, lo, hi int, base int64, buf []byte) error {
		seen[&buf[0]] = true
		for ci := lo; ci < hi; ci++ {
			off := (int64(cands[ci]) - base) * rec
			if label := int(binary.LittleEndian.Uint16(buf[off : off+2])); label != rs.Label(cands[ci]) {
				t.Fatalf("record %d carries label %d, want %d: a recycled buffer was overwritten early", cands[ci], label, rs.Label(cands[ci]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks < 10 {
		t.Fatalf("only %d chunks; the test needs many more chunks than buffers", st.Chunks)
	}
	if len(seen) > 3 {
		t.Fatalf("%d chunks used %d distinct buffers, want at most 3", st.Chunks, len(seen))
	}

	calls := 0
	_, err = ScanRecords(dev, cfg, func(chunk, _, _ int, _ int64, _ []byte) error {
		calls++
		if chunk == 2 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || calls != 3 {
		t.Fatalf("process error at chunk 2: err = %v after %d calls, want errStop after 3", err, calls)
	}
}

var errStop = errors.New("stop")

// TestScanRecordsReusesCallerBuffers: with ScanConfig.Buffers a second
// pass reads into the first pass's buffers and allocates none, a later
// pass with longer spans grows them, and every pass reports the stats
// and hands process the payloads of a pass with no caller buffers.
func TestScanRecordsReusesCallerBuffers(t *testing.T) {
	const n = 6000
	_, rs := scanDevice(t, n)
	rec := rs.RecordBytes()
	// A stored image, not the virtual one: synthesizing records on read
	// allocates on its own.
	img := make([]byte, rs.Size())
	rs.Fill(0, img)
	dev, err := smartssd.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.StoreDataset("ds", img); err != nil {
		t.Fatal(err)
	}
	every := func(step int) []int {
		var cands []int
		for i := 0; i < n; i += step {
			cands = append(cands, i)
		}
		return cands
	}
	// pass scans cands and returns its stats with a digest of every
	// payload byte process saw, in order.
	pass := func(cands []int, bufs *ScanBuffers) (ScanStats, uint64) {
		t.Helper()
		h := fnv.New64a()
		st, err := ScanRecords(dev, ScanConfig{
			Object: "ds", RecordBytes: rec, Candidates: cands, ChunkRecords: 256, Buffers: bufs,
		}, func(_, lo, hi int, base int64, buf []byte) error {
			for ci := lo; ci < hi; ci++ {
				off := (int64(cands[ci]) - base) * rec
				h.Write(buf[off : off+rec])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, h.Sum64()
	}
	var bufs ScanBuffers
	dense, sparse := every(2), every(5)
	for i, cands := range [][]int{dense, dense, sparse} {
		wantSt, wantSum := pass(cands, nil)
		before := bufs
		var st ScanStats
		var sum uint64
		got := allocatedBy(func() { st, sum = pass(cands, &bufs) })
		if st != wantSt || sum != wantSum {
			t.Fatalf("pass %d: stats %+v digest %#x with caller buffers, %+v %#x without", i, st, sum, wantSt, wantSum)
		}
		longest := int64(255*5+1) * rec // a sparse chunk's span
		switch i {
		case 1:
			if got > uint64(cap(bufs[0]))/4 {
				t.Fatalf("second pass allocated %d bytes; its %d-byte buffers were there to reuse", got, cap(bufs[0]))
			}
			for j := range bufs {
				if &bufs[j][:1][0] != &before[j][:1][0] {
					t.Fatalf("second pass replaced buffer %d", j)
				}
			}
		case 2:
			for j := range bufs {
				if int64(cap(bufs[j])) < longest {
					t.Fatalf("buffer %d holds %d bytes after a pass with %d-byte spans", j, cap(bufs[j]), longest)
				}
			}
		}
	}
}
