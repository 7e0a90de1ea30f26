// Package quant implements the symmetric int8 weight quantization
// NeSSA uses for its feedback loop (paper §3.2.1, contribution 2): the
// target model trained on the GPU is quantized before being shipped
// back over the narrow host link to the FPGA, where the selection
// model runs its forward passes on the quantized weights. Quantizing
// both shrinks the feedback transfer by ~4× and matches the int8 MAC
// arrays the FPGA kernel is built from (see internal/fpga).
package quant

import (
	"fmt"
	"math"

	"nessa/internal/nn"
	"nessa/internal/tensor"
)

// Tensor is a symmetric per-tensor int8 quantization of a float32
// matrix: value ≈ Scale · int8.
type Tensor struct {
	Rows, Cols int
	Scale      float32
	Data       []int8
}

// Quantize converts m to int8 with a symmetric per-tensor scale chosen
// so the largest-magnitude element maps to ±127.
func Quantize(m *tensor.Matrix) *Tensor {
	q := &Tensor{Rows: m.Rows, Cols: m.Cols, Data: make([]int8, len(m.Data))}
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
		return q
	}
	q.Scale = maxAbs / 127
	inv := 1 / q.Scale
	for i, v := range m.Data {
		r := math.Round(float64(v * inv))
		if r > 127 {
			r = 127
		} else if r < -127 {
			r = -127
		}
		q.Data[i] = int8(r)
	}
	return q
}

// Dequantize expands q back to float32.
func (q *Tensor) Dequantize() *tensor.Matrix {
	m := tensor.NewMatrix(q.Rows, q.Cols)
	for i, v := range q.Data {
		m.Data[i] = float32(v) * q.Scale
	}
	return m
}

// SizeBytes reports the wire size of the quantized tensor (int8 payload
// plus the 4-byte scale), which is what crosses the host link in the
// feedback transfer.
func (q *Tensor) SizeBytes() int64 { return int64(len(q.Data)) + 4 }

// Model is an int8-quantized snapshot of an nn.MLP: the selection model
// that lives on the FPGA. Biases stay float32 (they are tiny and feed
// the accumulators directly, as in standard int8 inference).
type Model struct {
	In, Classes int
	Weights     []*Tensor
	Biases      [][]float32
}

// QuantizeModel snapshots m into an int8 Model.
func QuantizeModel(m *nn.MLP) *Model {
	qm := &Model{In: m.In, Classes: m.Classes}
	for _, l := range m.Layers {
		qm.Weights = append(qm.Weights, Quantize(l.W))
		qm.Biases = append(qm.Biases, append([]float32(nil), l.B...))
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
// carries the int8 rounding error, exactly like running int8 MACs.
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

// MaxAbsError reports the worst-case reconstruction error of quantizing
// m, which for symmetric rounding is at most Scale/2 per element.
func MaxAbsError(m *tensor.Matrix) float32 {
	q := Quantize(m)
	d := q.Dequantize()
	var worst float32
	for i := range m.Data {
		e := m.Data[i] - d.Data[i]
		if e < 0 {
			e = -e
		}
		if e > worst {
			worst = e
		}
	}
	return worst
}

// String describes the tensor for diagnostics.
func (q *Tensor) String() string {
	return fmt.Sprintf("quant.Tensor(%dx%d, scale=%g)", q.Rows, q.Cols, q.Scale)
}
