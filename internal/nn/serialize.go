package nn

import (
	"nessa/internal/tensor"
	"nessa/internal/wire"
)

// Binary model serialization: a compact, versioned little-endian
// format used for checkpointing trained target models and for sizing
// full-precision feedback transfers. Layout:
//
//	magic   uint32  'NSSA'
//	version uint32  1
//	in      uint32
//	classes uint32
//	layers  uint32
//	per layer: rows uint32, cols uint32, rows*cols float32 weights,
//	           rows float32 biases
const (
	modelMagic   = 0x4e535341 // "NSSA"
	modelVersion = 1
)

// Optimizer-state serialization companion to the model format, used by
// core's session checkpoints: resuming mid-run is only bit-identical
// if the Nesterov velocity buffers (and the scheduled learning rate)
// come back exactly. Layout:
//
//	magic   uint32  'NSGD'
//	version uint32  1
//	lr      float32
//	layers  uint32
//	per layer: rows uint32, cols uint32, rows*cols float32 vW,
//	           rows float32 vB
const (
	sgdMagic   = 0x4e534744 // "NSGD"
	sgdVersion = 1
)

// putLayer writes the per-layer record both formats end in.
func putLayer(w *wire.Writer, m *tensor.Matrix, b []float32) {
	w.U32(uint32(m.Rows))
	w.U32(uint32(m.Cols))
	w.F32s(m.Data)
	w.F32s(b)
}

// getLayer fills the tensors the caller's configuration sized and only
// compares the file's dimensions against them: the input never sizes an
// allocation.
func getLayer(r *wire.Reader, i int, m *tensor.Matrix, b []float32) {
	if rows, cols := r.U32(), r.U32(); int(rows) != m.Rows || int(cols) != m.Cols {
		r.Failf("layer %d is %dx%d, configuration builds %dx%d", i, rows, cols, m.Rows, m.Cols)
	}
	r.F32s(m.Data)
	r.F32s(b)
}

// MarshalSGD serializes the optimizer's mutable state (current LR and
// per-layer velocity buffers).
func MarshalSGD(s *SGD) []byte {
	var w wire.Writer
	w.U32(sgdMagic)
	w.U32(sgdVersion)
	w.F32(s.lr)
	w.U32(uint32(len(s.vW)))
	for i, v := range s.vW {
		putLayer(&w, v, s.vB[i])
	}
	return w.Buf
}

// UnmarshalSGDInto restores state captured by MarshalSGD into s, which
// must have been built for a model of the identical architecture. After
// an error s may be partly overwritten.
func UnmarshalSGDInto(s *SGD, buf []byte) error {
	r := wire.NewReader("nn: optimizer", buf)
	r.Header(sgdMagic, sgdVersion)
	lr := r.F32()
	if !(lr > 0) {
		r.Failf("non-positive learning rate %v", lr)
	}
	if layers := r.U32(); int(layers) != len(s.vW) {
		r.Failf("has %d layers, configuration builds %d", layers, len(s.vW))
	}
	for i, v := range s.vW {
		getLayer(r, i, v, s.vB[i])
	}
	if err := r.Done(); err != nil {
		return err
	}
	s.lr = lr
	return nil
}

// MarshalModel serializes m.
func MarshalModel(m *MLP) []byte {
	var w wire.Writer
	w.U32(modelMagic)
	w.U32(modelVersion)
	w.U32(uint32(m.In))
	w.U32(uint32(m.Classes))
	w.U32(uint32(len(m.Layers)))
	for _, l := range m.Layers {
		putLayer(&w, l.W, l.B)
	}
	return w.Buf
}

// UnmarshalModelInto restores weights captured by MarshalModel into m,
// which must have been built (NewMLP) for the identical architecture.
// After an error m may be partly overwritten.
func UnmarshalModelInto(m *MLP, buf []byte) error {
	r := wire.NewReader("nn: model", buf)
	r.Header(modelMagic, modelVersion)
	if in, classes, layers := r.U32(), r.U32(), r.U32(); int(in) != m.In || int(classes) != m.Classes || int(layers) != len(m.Layers) {
		r.Failf("is %d→%d over %d layers, configuration builds %d→%d over %d",
			in, classes, layers, m.In, m.Classes, len(m.Layers))
	}
	for i, l := range m.Layers {
		getLayer(r, i, l.W, l.B)
	}
	return r.Done()
}
