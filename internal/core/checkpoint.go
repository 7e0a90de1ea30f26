package core

import (
	"time"

	"nessa/internal/selection"
	"nessa/internal/trainer"
	"nessa/internal/wire"
)

// Session checkpoints: a compact, versioned little-endian capture of
// the whole training session — candidate pool, current subset and
// weights, loss-history rings, metrics so far, fault and recovery
// counters, both RNG cursors, and the model/optimizer tensors (via
// the nn serialization formats). Restoring a blob into a freshly
// validated session reproduces the remaining epochs bit-identically:
// every input the epoch loop consumes is either immutable
// configuration or lives in this capture.
//
// Layout (all little-endian):
//
//	magic    uint32 'NSCP'
//	version  uint32 1
//	epoch    uint32  next epoch to execute
//	n        uint32  training-set size guard
//	frac     float64
//	prevLoss float64
//	slow     uint32
//	dropped  uint32
//	ctrlRNG  uint64  controller RNG cursor
//	trRNG    uint64  trainer RNG cursor
//	cands    uint32 count + count*uint32
//	selected uint32 count (cpNil = no current subset) + count*uint32
//	         + count*float32 weights
//	history  uint32 window, then per sample: uint32 present flag (1 iff
//	         the sample has a recorded loss), [uint32 pos, uint32 count
//	         (≥ 1), window*float32]
//	metrics  uint32 epochs, then per epoch: float64 loss, float64 acc,
//	         uint32 subset size, float64 subset frac
//	faults   6*uint32 counters
//	recovery uint32 lost, uint32 degraded, uint64 reconstructed bytes,
//	         uint64 rebuild ns
//	model    uint32 len + MarshalModel bytes
//	sgd      uint32 len + MarshalSGD bytes
const (
	checkpointMagic   = 0x4e534350 // "NSCP"
	checkpointVersion = 1
	cpNil             = 0xffffffff // sentinel count: nil current subset
)

func putInts(w *wire.Writer, xs []int) {
	w.U32(uint32(len(xs)))
	for _, x := range xs {
		w.U32(uint32(x))
	}
}

// checkpoint captures the session after `epoch` completed epochs.
func (s *session) checkpoint(epoch int) []byte {
	model, sgd, trRNG := s.tr.Snapshot()
	w := &wire.Writer{}
	w.U32(checkpointMagic)
	w.U32(checkpointVersion)
	w.U32(uint32(epoch))
	w.U32(uint32(s.n))
	w.F64(s.frac)
	w.F64(s.prevLoss)
	w.U32(uint32(s.slowEpochs))
	w.U32(uint32(s.dropped))
	w.U64(s.rng.State())
	w.U64(trRNG)
	putInts(w, s.cands)
	if s.current.Selected == nil {
		w.U32(cpNil)
	} else {
		putInts(w, s.current.Selected)
		w.F32s(s.current.Weights)
	}
	w.U32(uint32(s.hist.window))
	for i := 0; i < s.n; i++ {
		if s.hist.count[i] == 0 {
			w.U32(0)
			continue
		}
		w.U32(1)
		w.U32(uint32(s.hist.pos[i]))
		w.U32(uint32(s.hist.count[i]))
		w.F32s(s.hist.ring(i))
	}
	m := &s.rep.Metrics
	w.U32(uint32(len(m.EpochLoss)))
	for i := range m.EpochLoss {
		w.F64(m.EpochLoss[i])
		w.F64(m.EpochAcc[i])
		w.U32(uint32(m.SubsetSizes[i]))
		w.F64(s.rep.EpochSubsetFrac[i])
	}
	f := &s.rep.Faults
	w.U32(uint32(f.ScanAttempts))
	w.U32(uint32(f.Retries))
	w.U32(uint32(f.TransientErrors))
	w.U32(uint32(f.CorruptDetected))
	w.U32(uint32(f.HostFallbacks))
	w.U32(uint32(f.FallbackEpochs))
	r := &s.rep.Recovery
	w.U32(uint32(r.DevicesLost))
	w.U32(uint32(r.DegradedReads))
	w.U64(uint64(r.ReconstructedBytes))
	w.U64(uint64(r.RebuildTime))
	w.Blob(model)
	w.Blob(sgd)
	return w.Buf
}

// getIndices reads c dataset indices in [0, n); c is bounded by the
// configured n before it sizes the slice.
func getIndices(r *wire.Reader, what string, c uint32, n int) []int {
	if int64(c) > int64(n) {
		r.Failf("%s count %d exceeds %d samples", what, c, n)
		return nil
	}
	xs := make([]int, c)
	for i := range xs {
		v := r.U32()
		if int64(v) >= int64(n) {
			r.Failf("%s index %d out of range [0,%d)", what, v, n)
			return nil
		}
		xs[i] = int(v)
	}
	return xs
}

// restore rebuilds the session's mutable state from a checkpoint
// captured under the same configuration. Every failure sticks in the
// reader and surfaces at Done; after one the session is unusable.
func (s *session) restore(buf []byte) error {
	r := wire.NewReader("checkpoint", buf)
	r.Header(checkpointMagic, checkpointVersion)
	epoch := int(r.U32())
	if epoch > s.tcfg.Epochs {
		r.Failf("epoch %d beyond configured %d epochs", epoch, s.tcfg.Epochs)
	}
	if n := int(r.U32()); n != s.n {
		r.Failf("for %d samples, training set has %d", n, s.n)
	}
	s.frac = r.F64()
	s.prevLoss = r.F64()
	s.slowEpochs = int(r.U32())
	s.dropped = int(r.U32())
	ctrlRNG := r.U64()
	trRNG := r.U64()
	s.cands = getIndices(r, "candidate", r.U32(), s.n)
	if len(s.cands) == 0 {
		r.Failf("has an empty candidate pool")
	}
	s.current = selection.Result{}
	if sc := r.U32(); sc != cpNil {
		s.current.Selected = getIndices(r, "subset", sc, s.n)
		s.current.Weights = make([]float32, len(s.current.Selected))
		r.F32s(s.current.Weights)
	}
	// A run too short to fill its window clamps it to Epochs+1 slots,
	// so a checkpoint may carry another window than this session's. A
	// ring that never wrapped holds its losses in slots [0, count) in
	// any window, so such a checkpoint restores when every ring fits
	// this window unwrapped (pos == count); anything else is a
	// different configuration.
	window := int(r.U32())
	resized := window != s.hist.window
	if resized && window < 1 {
		r.Failf("loss-history window %d, configured %d", window, s.hist.window)
	}
	// Once the reader has failed every flag reads 0, so the rest of
	// the walk allocates nothing.
	for i := 0; i < s.n; i++ {
		switch present := r.U32(); present {
		case 0:
			continue
		case 1:
		default:
			r.Failf("loss-history ring %d has presence flag %d", i, present)
		}
		pos, cnt := int(r.U32()), int(r.U32())
		if pos < 0 || pos >= window || cnt < 1 || cnt > window {
			r.Failf("loss-history ring %d corrupt (pos %d, count %d)", i, pos, cnt)
			break
		}
		if !resized {
			r.F32s(s.hist.ring(i))
		} else if cnt <= s.hist.window && pos == cnt {
			r.F32s(s.hist.ring(i)[:cnt])
			r.Skip(4 * (window - cnt))
			pos %= s.hist.window
		} else {
			r.Failf("loss-history window %d, configured %d", window, s.hist.window)
			break
		}
		s.hist.pos[i], s.hist.count[i] = pos, cnt
	}
	ne := r.Count("metrics", epoch, 28)
	if ne != epoch {
		r.Failf("holds %d epoch records for epoch %d", ne, epoch)
	}
	m := &s.rep.Metrics
	for i := 0; i < ne; i++ {
		m.EpochLoss = append(m.EpochLoss, r.F64())
		m.EpochAcc = append(m.EpochAcc, r.F64())
		m.SubsetSizes = append(m.SubsetSizes, int(r.U32()))
		s.rep.EpochSubsetFrac = append(s.rep.EpochSubsetFrac, r.F64())
	}
	f := &s.rep.Faults
	f.ScanAttempts = int(r.U32())
	f.Retries = int(r.U32())
	f.TransientErrors = int(r.U32())
	f.CorruptDetected = int(r.U32())
	f.HostFallbacks = int(r.U32())
	f.FallbackEpochs = int(r.U32())
	rec := &s.rep.Recovery
	rec.DevicesLost = int(r.U32())
	rec.DegradedReads = int(r.U32())
	rec.ReconstructedBytes = int64(r.U64())
	rec.RebuildTime = time.Duration(r.U64())
	model := r.Blob("model")
	sgd := r.Blob("optimizer")
	if err := r.Done(); err != nil {
		return err
	}
	tr, err := trainer.Restore(s.train.Spec, s.tcfg, model, sgd, trRNG)
	if err != nil {
		return err
	}
	s.tr = tr
	s.rng.SetState(ctrlRNG)
	s.epoch = epoch
	return nil
}
