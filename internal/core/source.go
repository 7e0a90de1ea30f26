package core

import (
	"fmt"

	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/selection/streaming"
	"nessa/internal/smartssd"
)

// recordSource is where a reselection's candidate records come from —
// the bytes the storage stack scanned, CRC-checked and reconstructed,
// or train itself when no drive is attached — and what a selection
// pass charges the drives. newSource picks it once per session.
type recordSource interface {
	feedback(bytes int64) // broadcast the quantized selection model
	// scan reads the records of cands and hands them to visit in chunks
	// [lo, hi) of at most chunk candidates, in order: chunk by chunk as
	// visit consumes them when streaming, after one read of the whole
	// pool otherwise. degraded reports a device read that failed even
	// after retries with a fault the epoch can fall back from.
	scan(cands []int, chunk int, streaming bool, visit visitFunc, rep *Report) (degraded bool, err error)
	fallback(selected []int, fr *FaultReport) error // host-path read + ship of a degraded epoch's subset
	ship(records int)                               // subset transfer to the GPU
	lost() int                                      // devices lost since the session began
}

// visitFunc consumes candidates [lo, hi) of a scan. at(i) is candidate
// i's record, valid until visit returns; a nil at means the source has
// no bytes and the features are train's.
type visitFunc func(lo, hi int, at func(i int) []byte) error

// newSource picks the session's record source: a storage source over
// the attached drive or cluster — with the fault injector attached and
// the cluster's per-record verify installed — or train itself.
func newSource(opt *Options, spec data.Spec) (recordSource, error) {
	if opt.Device == nil && opt.Cluster == nil {
		return memorySource{}, nil
	}
	rec, err := data.RecordSize(spec)
	if err != nil {
		return nil, err
	}
	s := &storageSource{
		dev: opt.Device, cluster: opt.Cluster, name: opt.DatasetName, rec: rec,
		verify: verifyRecords(rec), retry: opt.Retry, rebuild: opt.AutoRebuild,
	}
	if opt.RawScan {
		// The pre-fault-tolerance read: one issue, no CRC verify.
		s.verify, s.retry = nil, smartssd.RetryPolicy{MaxAttempts: 1}
	}
	if opt.Injector != nil {
		for _, d := range s.devices() {
			d.SetInjector(opt.Injector)
		}
	}
	if s.cluster != nil {
		// Per-record CRC verification on every scanned (and
		// reconstructed) stripe, same contract as the single-device
		// resilient read path.
		s.cluster.Verify = s.verify
		s.lostStart = s.cluster.LostCount()
	}
	return s, nil
}

func eachChunk(n, chunk int, at func(int) []byte, visit visitFunc) error {
	for lo := 0; lo < n; lo += chunk {
		if err := visit(lo, min(lo+chunk, n), at); err != nil {
			return err
		}
	}
	return nil
}

// memorySource serves reselections from train: no drive, no charges.
type memorySource struct{}

func (memorySource) feedback(int64) {}

func (memorySource) scan(cands []int, chunk int, _ bool, visit visitFunc, _ *Report) (bool, error) {
	return false, eachChunk(len(cands), chunk, nil, visit)
}

func (memorySource) fallback([]int, *FaultReport) error { return nil }
func (memorySource) ship(int)                           {}
func (memorySource) lost() int                          { return 0 }

// storageSource serves reselections from the dataset image stored on
// one drive (dev) or striped across a cluster. views holds a gathered
// device read's payloads, one per candidate. buf and scanBufs (the
// streaming scan's chunk buffers) hold what a read writes (a corrupted
// draw), each sized by the first read that writes into it.
type storageSource struct {
	dev       *smartssd.Device
	cluster   *smartssd.Cluster
	name      string
	rec       int64
	verify    func([]byte) error // per-record CRC check; nil on the raw path
	retry     smartssd.RetryPolicy
	rebuild   bool // AutoRebuild
	lostStart int  // cluster losses that predate the session
	buf       []byte
	views     [][]byte
	scanBufs  streaming.ScanBuffers
}

// devices is resolved at each call, so a spare that Rebuild swapped
// into the group is seen from the next use on.
func (s *storageSource) devices() []*smartssd.Device {
	if s.cluster != nil {
		return s.cluster.Devices
	}
	return []*smartssd.Device{s.dev}
}

func (s *storageSource) feedback(bytes int64) {
	for _, d := range s.devices() {
		d.ReceiveFeedback(bytes)
	}
}

// ship sends the subset from member 0 — a group's aggregation point.
func (s *storageSource) ship(records int) {
	s.devices()[0].SendToGPU(int64(records)*s.rec, records)
}

func (s *storageSource) lost() int {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.LostCount() - s.lostStart
}

func (s *storageSource) scan(cands []int, chunk int, stream bool, visit visitFunc, rep *Report) (bool, error) {
	var err error
	switch {
	case s.cluster != nil:
		return false, s.scanCluster(cands, chunk, visit, rep)
	case stream:
		var st streaming.ScanStats
		st, err = streaming.ScanRecords(s.dev, streaming.ScanConfig{
			Object: s.name, RecordBytes: s.rec, Candidates: cands,
			ChunkRecords: chunk, Verify: s.verify, Retry: s.retry, Buffers: &s.scanBufs,
		}, func(_, lo, hi int, base int64, buf []byte) error {
			return visit(lo, hi, func(i int) []byte {
				off := (int64(cands[i]) - base) * s.rec
				return buf[off : off+s.rec]
			})
		})
		rep.Faults.absorb(st.Read)
	default:
		var st smartssd.ReadStats
		s.views, st, err = s.dev.ReadRecordsInto(&s.buf, s.views, s.name, cands, s.rec, s.verify, s.retry)
		rep.Faults.absorb(st)
		if err == nil {
			err = eachChunk(len(cands), chunk, func(i int) []byte { return s.views[i] }, visit)
		}
	}
	if err != nil {
		if faults.IsDegradable(err) {
			// The near-storage pipeline is unavailable this epoch even
			// after retries; degrade rather than abort the whole job.
			return true, nil
		}
		return false, fmt.Errorf("core: candidate scan: %w", err)
	}
	return false, nil
}

// scanCluster runs one striped scan of the whole image. Per-shard retry
// and parity reconstruction have already absorbed every fault the
// placement can mask, so a residual error is fatal: more devices are
// gone than the parity budget covers. Candidates are decoded before any
// rebuild, which reuses the scan arena the stripes live in.
func (s *storageSource) scanCluster(cands []int, chunk int, visit visitFunc, rep *Report) error {
	stripes, st, _, err := s.cluster.ParallelScan(s.name, s.rec)
	rep.Faults.absorb(st.Read)
	rep.Recovery.DegradedReads += st.DegradedReads
	rep.Recovery.ReconstructedBytes += st.ReconstructedBytes
	if err != nil {
		return fmt.Errorf("core: cluster candidate scan: %w", err)
	}
	// Stripes hold consecutive record ranges; a candidate past the last
	// gets no bytes, which its decode reports.
	err = eachChunk(len(cands), chunk, func(i int) []byte {
		r := int64(cands[i])
		for _, stripe := range stripes {
			if n := int64(len(stripe)) / s.rec; r >= n {
				r -= n
				continue
			}
			return stripe[r*s.rec : (r+1)*s.rec]
		}
		return nil
	}, visit)
	if err != nil {
		return err
	}
	if st.DegradedReads > 0 && s.rebuild && s.cluster.Spares() > 0 {
		dur, err := s.cluster.Rebuild(s.name)
		if err != nil {
			return fmt.Errorf("core: rebuild after degraded scan: %w", err)
		}
		rep.Recovery.RebuildTime += dur
	}
	return nil
}

// fallback reads the fallback subset's records over the resilient host
// path and ships them. A failure here is fatal: both the near-storage
// and conventional paths are down.
func (s *storageSource) fallback(selected []int, fr *FaultReport) error {
	_, st, err := s.dev.ReadResilientHost(&s.buf, s.views, s.name, selected, s.rec, verifyRecords(s.rec), s.retry)
	fr.absorb(st)
	if err != nil {
		return fmt.Errorf("core: degraded-mode host read: %w", err)
	}
	s.ship(len(selected))
	return nil
}
