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

// QuantizeBits converts m to signed fixed point at the given width, the
// largest-magnitude element mapping to the largest code (±127 at 8 bits).
func QuantizeBits(m *tensor.Matrix, bits int) (*Tensor, error) {
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("quant: bit width %d out of [2,16]", bits)
	}
	q := &Tensor{Rows: m.Rows, Cols: m.Cols, Bits: bits, Data: make([]int16, len(m.Data))}
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
		return q, nil
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
	return q, nil
}

// Dequantize expands q back to float32.
func (q *Tensor) Dequantize() *tensor.Matrix {
	m := tensor.NewMatrix(q.Rows, q.Cols)
	for i, v := range q.Data {
		m.Data[i] = float32(v) * q.Scale
	}
	return m
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
	qm := &Model{In: m.In, Classes: m.Classes}
	for _, l := range m.Layers {
		w, err := QuantizeBits(l.W, bits)
		if err != nil {
			return nil, err
		}
		qm.Weights = append(qm.Weights, w)
		qm.Biases = append(qm.Biases, append([]float32(nil), l.B...))
	}
	return qm, nil
}

// QuantizeModel snapshots m at the paper's 8 bits.
func QuantizeModel(m *nn.MLP) *Model {
	qm, err := QuantizeModelBits(m, 8)
	if err != nil {
		panic(err) // 8 is inside [2,16]
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
	m := &nn.MLP{In: qm.In, Classes: qm.Classes}
	for i, w := range qm.Weights {
		m.Layers = append(m.Layers, &nn.Dense{
			W: w.Dequantize(),
			B: append([]float32(nil), qm.Biases[i]...),
		})
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
