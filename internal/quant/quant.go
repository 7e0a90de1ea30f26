// Package quant implements the symmetric fixed-point weight
// quantization NeSSA uses for its feedback loop (paper §3.2.1,
// contribution 2): the target model trained on the GPU is quantized
// before being shipped back over the narrow host link to the FPGA,
// where the selection model runs its forward passes on the quantized
// weights. The paper's 8 bits shrink the feedback transfer by ~4× and
// match the int8 MAC arrays the FPGA kernel is built from (see
// internal/fpga); the other widths (2..16) serve the bit-width ablation.
package quant

import (
	"fmt"
	"math"
	"slices"

	"nessa/internal/nn"
	"nessa/internal/tensor"
)

// Tensor is a symmetric per-tensor fixed-point quantization of a float32
// matrix: value ≈ Scale · Data, |Data| ≤ 2^(Bits-1)-1.
type Tensor struct {
	Rows, Cols int
	Bits       int
	Scale      float32
	Data       []int16
}

func checkBits(bits int) error {
	if bits < 2 || bits > 16 {
		return fmt.Errorf("quant: bit width %d out of [2,16]", bits)
	}
	return nil
}

// quantizeInto converts m to signed fixed point at the given width into
// q's storage (nil allocates), the largest-magnitude element mapping to
// the largest code (±127 at 8 bits). bits must already be checked to
// lie in [2,16].
func quantizeInto(q *Tensor, m *tensor.Matrix, bits int) *Tensor {
	if q == nil {
		q = &Tensor{}
	}
	if cap(q.Data) < len(m.Data) {
		q.Data = make([]int16, len(m.Data))
	}
	q.Rows, q.Cols, q.Bits, q.Data = m.Rows, m.Cols, bits, q.Data[:len(m.Data)]
	limit := float64(int32(1)<<(bits-1) - 1)
	var maxAbs float32
	for _, v := range m.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		q.Scale = 1
		clear(q.Data)
		return q
	}
	q.Scale = maxAbs / float32(limit)
	inv := 1 / q.Scale
	for i, v := range m.Data {
		r := math.Round(float64(v * inv))
		if r > limit {
			r = limit
		} else if r < -limit {
			r = -limit
		}
		q.Data[i] = int16(r)
	}
	return q
}

// dequantizeInto expands q into dst, reusing dst's storage when it is
// large enough (nil allocates), and returns the matrix it filled.
func (q *Tensor) dequantizeInto(dst *tensor.Matrix) *tensor.Matrix {
	dst = tensor.EnsureShape(dst, q.Rows, q.Cols)
	for i, v := range q.Data {
		dst.Data[i] = float32(v) * q.Scale
	}
	return dst
}

// SizeBytes reports the packed wire size that crosses the host link in
// the feedback transfer: bits·elements/8 rounded up + the 4-byte scale.
func (q *Tensor) SizeBytes() int64 {
	return int64(len(q.Data)*q.Bits+7)/8 + 4
}

// Model is a quantized snapshot of an nn.MLP: the selection model that
// lives on the FPGA. Biases stay float32 (they are tiny and feed the
// accumulators directly, as in standard int8 inference).
type Model struct {
	In, Classes int
	Weights     []*Tensor
	Biases      [][]float32
}

// QuantizeModelBits snapshots m at the given bit width.
func QuantizeModelBits(m *nn.MLP, bits int) (*Model, error) {
	if err := checkBits(bits); err != nil {
		return nil, err
	}
	return quantizeModelInto(nil, m, bits), nil
}

// QuantizeModel snapshots m at the paper's 8 bits.
func QuantizeModel(m *nn.MLP) *Model {
	return quantizeModelInto(nil, m, 8)
}

// QuantizeModelInto is QuantizeModel into qm's storage: a snapshot of
// the same architecture reuses every tensor, so refreshing the
// selection model each epoch allocates nothing. nil allocates.
func QuantizeModelInto(qm *Model, m *nn.MLP) *Model {
	return quantizeModelInto(qm, m, 8)
}

func quantizeModelInto(qm *Model, m *nn.MLP, bits int) *Model {
	if qm == nil {
		qm = &Model{}
	}
	qm.In, qm.Classes = m.In, m.Classes
	qm.Weights = slices.Grow(qm.Weights[:0], len(m.Layers))[:len(m.Layers)]
	qm.Biases = slices.Grow(qm.Biases[:0], len(m.Layers))[:len(m.Layers)]
	for i, l := range m.Layers {
		qm.Weights[i] = quantizeInto(qm.Weights[i], l.W, bits)
		qm.Biases[i] = append(qm.Biases[i][:0], l.B...)
	}
	return qm
}

// SizeBytes reports the total feedback-transfer size of the model:
// quantized weights plus float32 biases.
func (qm *Model) SizeBytes() int64 {
	var n int64
	for i, w := range qm.Weights {
		n += w.SizeBytes() + int64(4*len(qm.Biases[i]))
	}
	return n
}

// Dequantized reconstructs a float32 MLP from the quantized snapshot.
// This is the model the FPGA selection kernel evaluates: numerically it
// carries the rounding error, exactly like running int8 MACs.
func (qm *Model) Dequantized() *nn.MLP {
	return qm.DequantizedInto(nil)
}

// DequantizedInto is Dequantized into m's layers: a model of the same
// architecture reuses every weight matrix and bias. nil allocates.
func (qm *Model) DequantizedInto(m *nn.MLP) *nn.MLP {
	if m == nil {
		m = &nn.MLP{}
	}
	m.In, m.Classes = qm.In, qm.Classes
	m.Layers = slices.Grow(m.Layers[:0], len(qm.Weights))[:len(qm.Weights)]
	for i, w := range qm.Weights {
		l := m.Layers[i]
		if l == nil {
			l = &nn.Dense{}
			m.Layers[i] = l
		}
		l.W = w.dequantizeInto(l.W)
		l.B = append(l.B[:0], qm.Biases[i]...)
	}
	return m
}

// AgreementWithFloat measures, on a batch of inputs, the fraction of
// argmax predictions the quantized model shares with the float model —
// the selection-fidelity proxy for the bit-width ablation.
func AgreementWithFloat(m *nn.MLP, qm *Model, x *tensor.Matrix) float64 {
	if x.Rows == 0 {
		return 0
	}
	orig := m.Forward(x).Clone()
	deq := qm.Dequantized().Forward(x)
	agree := 0
	for i := 0; i < x.Rows; i++ {
		if tensor.Argmax(orig.Row(i)) == tensor.Argmax(deq.Row(i)) {
			agree++
		}
	}
	return float64(agree) / float64(x.Rows)
}
