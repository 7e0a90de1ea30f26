package streaming

import (
	"fmt"
	"sync"
	"time"

	"nessa/internal/smartssd"
)

// ScanConfig describes one sequential pass over a stored dataset
// object.
type ScanConfig struct {
	Object      string // drive object name
	RecordBytes int64  // fixed record stride
	Records     int    // total records in the object

	// Candidates, when non-nil, restricts the scan to those record
	// indices (must be sorted ascending). The driver still issues
	// sequential span reads covering each chunk's range, so candidate
	// subsets that cluster stay near sequential bandwidth. nil scans
	// every record.
	Candidates []int

	// ChunkRecords is the records per read chunk (default 8192). Up to
	// three chunk buffers are in flight — one being processed, one
	// queued, one being read from NAND — and are recycled for the whole
	// pass.
	ChunkRecords int

	// Buffers, when non-nil, holds those three chunk buffers across
	// passes: a read that writes its span grows the buffer it lands in
	// and leaves it there for the next. nil gives each pass its own.
	Buffers *ScanBuffers

	Verify func([]byte) error   // per-chunk payload verification (may be nil)
	Retry  smartssd.RetryPolicy // zero value = DefaultRetryPolicy
}

// ScanBuffers are the chunk buffers of a scan, owned by the caller so
// that repeated passes reuse them (ScanConfig.Buffers).
type ScanBuffers [3][]byte

// ScanStats reports what one pass did and how close its simulated I/O
// time came to the device's sequential-read bound.
type ScanStats struct {
	Chunks  int   `json:"chunks"`
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`

	// IOTime is the simulated-clock time charged to the pass's reads
	// (including retries and backoff). BoundTime is the modeled floor:
	// per chunk, the flash command setup plus the larger of internal
	// flash streaming and P2P link streaming — what a perfectly
	// pipelined scan of the same spans would cost. FracOfBound is
	// BoundTime/IOTime; the bench gates it at ≥ 0.8.
	IOTime      time.Duration `json:"ioTime"`
	BoundTime   time.Duration `json:"boundTime"`
	FracOfBound float64       `json:"fracOfBound"`

	Read smartssd.ReadStats `json:"read"` // retries/corruption absorbed
}

// ScanRecords streams the object through process in chunk order:
// process(chunk, lo, hi, base, buf) receives candidate indices
// [lo, hi) of the scan list, the record index of the first record in
// buf, and the raw span bytes. Reads are double-buffered: a prefetch
// goroutine keeps the next chunk's NAND read in flight while the
// current chunk is processed, mirroring the FPGA's DMA/compute
// overlap. process runs serially in stream order, so a deterministic
// consumer stays deterministic. buf is a read-only view of the stored
// image or, when the read wrote, one of three buffers the pass
// recycles and a later chunk's read overwrites, so process must not
// write it or keep it (or a slice of it) past its return. Simulated
// time is charged by the device read path; ScanStats reports how close
// it came to the sequential bound.
func ScanRecords(dev *smartssd.Device, cfg ScanConfig, process func(chunk, lo, hi int, base int64, buf []byte) error) (ScanStats, error) {
	var st ScanStats
	if cfg.RecordBytes <= 0 {
		return st, fmt.Errorf("streaming: scan needs a positive record size, got %d", cfg.RecordBytes)
	}
	cands := cfg.Candidates
	if cands == nil {
		if cfg.Records <= 0 {
			return st, fmt.Errorf("streaming: dense scan needs a positive record count, got %d", cfg.Records)
		}
	} else {
		for i := 1; i < len(cands); i++ {
			if cands[i] <= cands[i-1] {
				return st, fmt.Errorf("streaming: scan candidates must be sorted ascending and unique (index %d)", i)
			}
		}
	}
	n := cfg.Records
	if cands != nil {
		n = len(cands)
	}
	if n == 0 {
		return st, nil
	}
	chunkRecs := cfg.ChunkRecords
	if chunkRecs <= 0 {
		chunkRecs = 8192
	}

	type chunkRead struct {
		idx    int
		lo, hi int
		base   int64
		slot   int // the ScanBuffers entry buf lives in
		buf    []byte
		stats  smartssd.ReadStats
		err    error
	}
	// free holds the slots of the buffers not in flight. Three tokens:
	// the chunk being processed, the one queued in out, and the one
	// being read, which grows its slot only when it writes into it (a
	// virtual object, a corrupted draw). Only the prefetcher touches
	// bufs until the pass ends.
	bufs := cfg.Buffers
	if bufs == nil {
		bufs = new(ScanBuffers)
	}
	free := make(chan int, len(bufs))
	for slot := range bufs {
		free <- slot
	}
	out := make(chan chunkRead, 1)
	start := dev.Clock.Now() // before the prefetcher's first read
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(out)
		for c, lo := 0, 0; lo < n; c, lo = c+1, lo+chunkRecs {
			// Chunk c is candidates [lo, hi): the span from the first
			// one's record to the last one's.
			hi := min(lo+chunkRecs, n)
			first, last := lo, hi-1
			if cands != nil {
				first, last = cands[lo], cands[hi-1]
			}
			off, length := int64(first)*cfg.RecordBytes, int64(last-first+1)*cfg.RecordBytes
			slot := <-free
			buf, rs, err := dev.ReadResilientInto(&bufs[slot], cfg.Object, off, length, 1, cfg.Verify, cfg.Retry)
			out <- chunkRead{idx: c, lo: lo, hi: hi, base: int64(first), slot: slot, buf: buf, stats: rs, err: err}
			if err != nil {
				return
			}
		}
	}()

	ssdCfg := dev.SSD.Config()
	internalBW := dev.SSD.InternalBWFor(false)
	consume := func(cr chunkRead) error {
		st.Read.Add(cr.stats)
		if cr.err != nil {
			return fmt.Errorf("streaming: scan chunk %d: %w", cr.idx, cr.err)
		}
		st.Chunks++
		st.Records += cr.hi - cr.lo
		st.Bytes += int64(len(cr.buf))
		flashT := ssdCfg.CommandLatency + time.Duration(float64(len(cr.buf))/internalBW*float64(time.Second))
		linkT := dev.P2P.Duration(int64(len(cr.buf)), 1)
		if linkT > flashT {
			st.BoundTime += linkT
		} else {
			st.BoundTime += flashT
		}
		if process != nil {
			if err := process(cr.idx, cr.lo, cr.hi, cr.base, cr.buf); err != nil {
				return fmt.Errorf("streaming: scan chunk %d: %w", cr.idx, err)
			}
		}
		return nil
	}
	// After a failure the remaining chunks are drained unprocessed, so
	// the prefetcher can exit before we read the clock; every buffer
	// still goes back to the free list or the prefetcher would starve.
	var procErr error
	for cr := range out {
		if procErr == nil {
			procErr = consume(cr)
		}
		free <- cr.slot
	}
	wg.Wait()
	st.IOTime = dev.Clock.Now() - start
	if st.IOTime > 0 {
		st.FracOfBound = float64(st.BoundTime) / float64(st.IOTime)
	}
	return st, procErr
}
