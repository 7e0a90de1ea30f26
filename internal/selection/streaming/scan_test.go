package streaming

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"nessa/internal/data"
	"nessa/internal/faults"
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
// recordLabel is the label rs draws for record i.
func recordLabel(rs *data.RecordStream, i int) int {
	return rs.Sample(i, make([]float32, rs.Spec.FeatureDim))
}

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
			if want := recordLabel(rs, i); label != want {
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
			if want := recordLabel(rs, g); label != want {
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
			if label := int(binary.LittleEndian.Uint16(buf[off : off+2])); label != recordLabel(rs, cands[ci]) {
				t.Fatalf("record %d carries label %d, want %d: a recycled buffer was overwritten early", cands[ci], label, recordLabel(rs, cands[ci]))
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

// TestScanRecordsReusesCallerBuffers: a chunk buffer in
// ScanConfig.Buffers grows only when a read writes into it. Clean passes
// over a stored image — two dense, then a sparser one with longer spans
// — read views and leave every slot at cap 0, allocating next to
// nothing. Under a corruption injector (no verify, so every corrupted
// span reaches process) the slots that grow are exactly the ones a read
// wrote into, and a second corrupted pass reuses them, growing only a
// slot it writes for the first time. Every pass reports the stats and
// hands process the payloads of the same pass with no caller buffers
// on a twin drive under the same fault schedule.
func TestScanRecordsReusesCallerBuffers(t *testing.T) {
	const n = 6144 // every(2) is 12 full chunks: every span is as long
	_, rs := scanDevice(t, n)
	rec := rs.RecordBytes()
	// A stored image, not the virtual one: synthesizing records on read
	// writes every span.
	img := make([]byte, rs.Size())
	rs.Fill(0, img)
	drive := func() *smartssd.Device {
		dev, err := smartssd.New()
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.StoreDataset("ds", img); err != nil {
			t.Fatal(err)
		}
		return dev
	}
	dev, twin := drive(), drive()
	every := func(step int) []int {
		var cands []int
		for i := 0; i < n; i += step {
			cands = append(cands, i)
		}
		return cands
	}
	// pass scans cands on d and returns its stats, a digest of every
	// payload byte process saw, in order, and the first byte of every
	// payload that is not a view of the image.
	pass := func(d *smartssd.Device, cands []int, bufs *ScanBuffers) (ScanStats, uint64, map[*byte]bool) {
		t.Helper()
		h := fnv.New64a()
		written := map[*byte]bool{}
		st, err := ScanRecords(d, ScanConfig{
			Object: "ds", RecordBytes: rec, Candidates: cands, ChunkRecords: 256, Buffers: bufs,
		}, func(_, lo, hi int, base int64, buf []byte) error {
			if &buf[0] != &img[base*rec] {
				written[&buf[0]] = true
			}
			for ci := lo; ci < hi; ci++ {
				off := (int64(cands[ci]) - base) * rec
				h.Write(buf[off : off+rec])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, h.Sum64(), written
	}
	span := int64(511) * rec // a dense chunk's span
	var bufs ScanBuffers
	dense, sparse := every(2), every(5)
	for i, cands := range [][]int{dense, dense, sparse} {
		wantSt, wantSum, _ := pass(twin, cands, nil)
		var st ScanStats
		var sum uint64
		var written map[*byte]bool
		got := allocatedBy(func() { st, sum, written = pass(dev, cands, &bufs) })
		if st != wantSt || sum != wantSum {
			t.Fatalf("clean pass %d: stats %+v digest %#x with caller buffers, %+v %#x without", i, st, sum, wantSt, wantSum)
		}
		if len(written) != 0 || cap(bufs[0])+cap(bufs[1])+cap(bufs[2]) != 0 {
			t.Fatalf("clean pass %d wrote %d spans and left buffers of cap %d, %d, %d; want views only",
				i, len(written), cap(bufs[0]), cap(bufs[1]), cap(bufs[2]))
		}
		if i > 0 && got > uint64(span)/4 {
			t.Fatalf("clean pass %d allocated %d bytes; a span is %d", i, got, span)
		}
	}

	prof := faults.Profile{Seed: 5, CorruptRate: 0.3}
	dev.SetInjector(faults.NewInjector(prof))
	twin.SetInjector(faults.NewInjector(prof))
	for i := 0; i < 2; i++ {
		wantSt, wantSum, _ := pass(twin, dense, nil)
		before := bufs
		var st ScanStats
		var sum uint64
		var written map[*byte]bool
		got := allocatedBy(func() { st, sum, written = pass(dev, dense, &bufs) })
		if st != wantSt || sum != wantSum {
			t.Fatalf("corrupted pass %d: stats %+v digest %#x with caller buffers, %+v %#x without", i, st, sum, wantSt, wantSum)
		}
		if len(written) == 0 || len(written) == 12 {
			t.Fatalf("corrupted pass %d wrote %d of 12 spans; the schedule must mix views and writes", i, len(written))
		}
		grown, landed := 0, 0
		for j, b := range bufs {
			wrote := cap(b) > 0 && written[&b[:1][0]]
			switch {
			case cap(before[j]) > 0:
				if &b[:1][0] != &before[j][:1][0] {
					t.Fatalf("corrupted pass %d replaced buffer %d, which already held a span", i, j)
				}
			case cap(b) > 0:
				grown++
				if !wrote {
					t.Fatalf("corrupted pass %d grew buffer %d, which no read wrote into", i, j)
				}
			}
			if wrote {
				landed++
			}
		}
		t.Logf("corrupted pass %d: %d of 12 spans written, %d buffers grown, %d bytes allocated", i, len(written), grown, got)
		if landed != len(written) {
			t.Fatalf("corrupted pass %d wrote spans at %d places, %d of them caller buffers", i, len(written), landed)
		}
		if limit := uint64(int64(grown)*span + span/4); got > limit {
			t.Fatalf("corrupted pass %d grew %d buffers and allocated %d bytes; want at most %d", i, grown, got, limit)
		}
	}
}
