package data

import (
	"fmt"

	"nessa/internal/tensor"
)

// RecordStream synthesizes an arbitrarily large dataset one record at
// a time. It shares the Gaussian-mixture structure of Generate (the
// same Spec difficulty knobs), but draws every sample from its own
// avalanche-mixed RNG stream (the ClassStream idiom), so record i can
// be produced in O(1) without generating records 0..i-1. That makes
// the stream usable as a storage.FillFunc: the simulated drive holds a
// 10M+ sample object whose bytes are synthesized on demand, and two
// reads of the same range always see the same bytes.
//
// The per-record draw order puts every label decision before the
// feature noise, so Label(i) costs a handful of RNG draws rather than
// FeatureDim of them.
type RecordStream struct {
	Spec Spec
	N    int

	mix  *mixture
	size int64

	// Record scratch for unaligned Fill spans. FillFunc calls are
	// serialized under the drive mutex, so one buffer suffices.
	rec []byte
}

// NewRecordStream builds a deterministic record stream of n samples
// for spec. The mixture (class centers, sub-modes) is derived from
// spec.Seed exactly as in Generate; the per-sample streams are
// independent of Generate's sequential sampling, so a RecordStream is
// a different (same-distribution) dataset than Generate's.
func NewRecordStream(spec Spec, n int) (*RecordStream, error) {
	if n <= 0 {
		return nil, fmt.Errorf("data: record stream needs a positive sample count, got %d", n)
	}
	size, err := RecordSize(spec)
	if err != nil {
		return nil, err
	}
	if spec.FeatureDim <= 0 || spec.Classes <= 0 {
		return nil, fmt.Errorf("data: spec %q has no simulation scale", spec.Name)
	}
	rng := tensor.NewRNG(spec.Seed)
	return &RecordStream{
		Spec: spec,
		N:    n,
		mix:  newMixture(rng, spec),
		size: size,
		rec:  make([]byte, size),
	}, nil
}

// RecordBytes reports the on-disk size of one record.
func (s *RecordStream) RecordBytes() int64 { return s.size }

// Size reports the total on-disk size of the stream object.
func (s *RecordStream) Size() int64 { return s.size * int64(s.N) }

// recordRNG derives the avalanche-mixed RNG for record i.
func (s *RecordStream) recordRNG(i int) *tensor.RNG {
	return tensor.NewRNG(s.Spec.Seed + uint64(i)).Split()
}

// drawLabel runs the label portion of record i's draw sequence:
// class, mode, hard-tail pull target, and label flip.
func (s *RecordStream) drawLabel(i int, rng *tensor.RNG) (label, cls, mode, hardOther int) {
	spec := s.Spec
	cls = i % spec.Classes // balanced classes, as in Generate
	mode = s.mix.pick(rng)
	hardOther = -1
	if rng.Float64() < spec.HardFrac && spec.Classes > 1 {
		other := rng.Intn(spec.Classes)
		for other == cls {
			other = rng.Intn(spec.Classes)
		}
		hardOther = other
	}
	label = cls
	if rng.Float64() < spec.NoiseFrac && spec.Classes > 1 {
		flip := rng.Intn(spec.Classes)
		for flip == cls {
			flip = rng.Intn(spec.Classes)
		}
		label = flip
	}
	return label, cls, mode, hardOther
}

// Sample synthesizes record i's features into the given slice (which
// must have length Spec.FeatureDim) and returns its label.
func (s *RecordStream) Sample(i int, features []float32) int {
	rng := s.recordRNG(i)
	label, cls, mode, hardOther := s.drawLabel(i, rng)
	copy(features, s.mix.center(cls, mode))
	if hardOther >= 0 {
		orow := s.mix.center(hardOther, 0)
		for j := range features {
			features[j] = float32(0.55*features[j]) + float32(0.45*orow[j])
		}
	}
	for j := range features {
		features[j] += float32(rng.NormFloat32() * float32(s.Spec.Spread))
	}
	return label
}

// EncodeRecord serializes record i into rec, which must be exactly
// RecordBytes long.
func (s *RecordStream) EncodeRecord(i int, rec []byte) {
	if int64(len(rec)) != s.size {
		panic(fmt.Sprintf("data: record buffer is %d bytes, want %d", len(rec), s.size))
	}
	features := make([]float32, s.Spec.FeatureDim)
	putRecord(rec, s.Sample(i, features), features)
}

// Fill implements storage.FillFunc over the stream's record layout:
// it synthesizes the bytes of [off, off+len(buf)), record-aligned or
// not. Aligned full records are encoded straight into buf; partial
// head/tail records go through the stream's scratch record.
func (s *RecordStream) Fill(off int64, buf []byte) {
	for len(buf) > 0 {
		i := int(off / s.size)
		rOff := off % s.size
		if rOff == 0 && int64(len(buf)) >= s.size {
			s.EncodeRecord(i, buf[:s.size])
			off += s.size
			buf = buf[s.size:]
			continue
		}
		s.EncodeRecord(i, s.rec)
		n := copy(buf, s.rec[rOff:])
		off += int64(n)
		buf = buf[n:]
	}
}
