// Package nn is a from-scratch neural-network training substrate: a
// multi-layer perceptron classifier with softmax cross-entropy loss,
// per-sample loss and gradient-embedding extraction (what the NeSSA
// selection model consumes), and SGD with Nesterov momentum, weight
// decay, and the step learning-rate schedule the paper trains with.
//
// The paper trains ResNet-20/18/50 on images; here the target models
// are MLP proxies over feature vectors (see DESIGN.md §1). Everything
// the selection pipeline touches — last-layer gradients, per-sample
// losses, quantizable weight tensors — has the same shape and
// semantics as it would on the real networks.
package nn

import (
	"fmt"
	"math"

	"nessa/internal/tensor"
)

// Dense is one fully connected layer. Weights are stored row-major as
// (out × in) so a forward pass is X·Wᵀ + b.
type Dense struct {
	W *tensor.Matrix // out × in
	B []float32      // out
}

// MLP is a feed-forward classifier: zero or more ReLU hidden layers
// followed by a linear output layer producing one logit per class.
type MLP struct {
	Layers  []*Dense
	In      int // input feature dimension
	Classes int // output dimension

	// scratch per-layer activations from the most recent Forward,
	// reused across calls to avoid reallocation. acts[0] is the input,
	// acts[i] the post-activation output of layer i-1.
	//
	//nessa:arena epoch-scoped forward scratch, overwritten by the next Forward
	acts []*tensor.Matrix
	// scratch per-layer input gradients for Backward, reused the same
	// way. Buffer capacity survives shrinking, so alternating full and
	// tail batches never reallocates.
	//
	//nessa:arena epoch-scoped backward scratch, overwritten by the next Backward
	deltas []*tensor.Matrix
}

// NewMLP builds an MLP with the given input dimension, hidden layer
// widths, and class count, initialized with He-style scaling from r.
// Each layer's input width is the previous layer's output width, so
// the whole in→hidden...→classes chain threads one running dimension.
func NewMLP(r *tensor.RNG, in int, hidden []int, classes int) *MLP {
	if in <= 0 || classes <= 0 {
		panic(fmt.Sprintf("nn: invalid MLP dims in=%d classes=%d", in, classes))
	}
	m := &MLP{In: in, Classes: classes}
	prev := in
	for _, h := range hidden {
		m.Layers = append(m.Layers, newDense(r, h, prev))
		prev = h
	}
	m.Layers = append(m.Layers, newDense(r, classes, prev))
	return m
}

// newDense builds one out×in layer with He-initialized weights
// (std = sqrt(2/in)), which keeps ReLU activations well-scaled.
func newDense(r *tensor.RNG, out, in int) *Dense {
	l := &Dense{
		W: tensor.NewMatrix(out, in),
		B: make([]float32, out),
	}
	std := float32(1.0)
	if in > 0 {
		std = float32(math.Sqrt(2 / float64(in)))
	}
	l.W.FillNormal(r, std)
	return l
}

// Clone returns a deep copy of the model (weights and biases).
func (m *MLP) Clone() *MLP {
	c := &MLP{In: m.In, Classes: m.Classes}
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, &Dense{
			W: l.W.Clone(),
			B: append([]float32(nil), l.B...),
		})
	}
	return c
}

// NumParams reports the total scalar parameter count.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W.Data) + len(l.B)
	}
	return n
}

// Forward runs a batch X (n × In) through the network and returns the
// logits (n × Classes). Intermediate activations are retained for a
// subsequent Backward. Activation buffers are reused across calls —
// including across differing batch sizes, so a short tail batch does
// not reallocate.
//
//nessa:hotpath
//nessa:scratch-ok returned logits are a documented view into the forward arena, valid until the next Forward
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	if len(m.acts) != len(m.Layers)+1 {
		m.acts = make([]*tensor.Matrix, len(m.Layers)+1)
	}
	return m.forwardInto(m.acts, x)
}

// FwdScratch owns the activation buffers of one independent inference
// pass. Distinct scratches make MLP.ForwardInto safe to call
// concurrently from multiple goroutines on a shared (read-only) model
// — the basis of the chunked parallel evaluation path.
//
//nessa:arena per-goroutine inference scratch, overwritten by the next ForwardInto
type FwdScratch struct {
	acts []*tensor.Matrix
}

// ForwardInto runs inference through s's buffers and returns the
// logits, valid until the next call with the same scratch. It never
// touches the model's training activations — so it cannot feed a
// subsequent Backward, and conversely never disturbs one in flight.
// The model itself is only read.
//
//nessa:hotpath
//nessa:scratch-ok returned logits are a documented view into s, valid until the next call with the same scratch
func (m *MLP) ForwardInto(s *FwdScratch, x *tensor.Matrix) *tensor.Matrix {
	if len(s.acts) != len(m.Layers)+1 {
		s.acts = make([]*tensor.Matrix, len(m.Layers)+1)
	}
	return m.forwardInto(s.acts, x)
}

//nessa:hotpath
func (m *MLP) forwardInto(acts []*tensor.Matrix, x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != m.In {
		panic(fmt.Sprintf("nn: Forward input has %d features, model wants %d", x.Cols, m.In))
	}
	// Both callers size acts to len(Layers)+1. The local layers copy
	// and the tail re-slice share one length value, so the prover can
	// discharge the per-layer indexing that an acts[i+1] access
	// defeats (a field re-load would not: the calls in the loop could,
	// for all the prover knows, mutate m.Layers).
	layers := m.Layers
	rest := acts[1:][:len(layers)]
	acts[0] = x
	cur := x
	for i, l := range layers {
		out := tensor.EnsureShape(rest[i], cur.Rows, l.W.Rows)
		rest[i] = out
		tensor.MatMulTransB(out, cur, l.W)
		if i < len(layers)-1 {
			tensor.AddRowVecReLU(out, l.B)
		} else {
			tensor.AddRowVec(out, l.B)
		}
		cur = out
	}
	return cur
}

// Grads holds one gradient tensor per layer, mirroring MLP.Layers.
type Grads struct {
	W []*tensor.Matrix
	B [][]float32
}

// NewGrads allocates zeroed gradients shaped like m.
func NewGrads(m *MLP) *Grads {
	g := &Grads{}
	for _, l := range m.Layers {
		g.W = append(g.W, tensor.NewMatrix(l.W.Rows, l.W.Cols))
		g.B = append(g.B, make([]float32, len(l.B)))
	}
	return g
}

// Zero clears all gradient tensors.
func (g *Grads) Zero() {
	for i := range g.W {
		g.W[i].Zero()
		for j := range g.B[i] {
			g.B[i][j] = 0
		}
	}
}

// Backward computes parameter gradients into g given dLogits, the
// gradient of the loss with respect to the logits of the most recent
// Forward batch. dLogits is clobbered. Gradients are accumulated into
// g (call g.Zero first for a fresh batch). All intermediate gradient
// buffers live in a per-model scratch arena, so steady-state calls
// allocate nothing.
//
//nessa:hotpath
func (m *MLP) Backward(g *Grads, dLogits *tensor.Matrix) {
	if len(m.acts) == 0 || m.acts[0] == nil {
		panic("nn: Backward called before Forward")
	}
	if len(m.deltas) != len(m.Layers) {
		m.deltas = make([]*tensor.Matrix, len(m.Layers))
	}
	delta := dLogits
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		in := m.acts[i]
		// dW += deltaᵀ·in directly into the gradient tensor (no
		// temporary, no extra pass); dB += column sums of delta.
		tensor.MatMulTransAAcc(g.W[i], delta, in)
		gb := g.B[i]
		for r := 0; r < delta.Rows; r++ {
			// Pin the row length to len(gb) so the prover discharges
			// both index checks in the column-sum loop.
			row := delta.Row(r)[:len(gb)]
			for j := range gb {
				gb[j] += row[j]
			}
		}
		if i == 0 {
			break
		}
		// Propagate: dIn = delta·W, then mask by ReLU derivative of in.
		// The mask zeroes wherever the stored activation is ≤ 0 (ReLU
		// outputs are never negative, so this means exactly the clamped
		// positions — the subgradient at 0 is taken as 0).
		dIn := tensor.EnsureShape(m.deltas[i], delta.Rows, l.W.Cols)
		m.deltas[i] = dIn
		tensor.MatMul(dIn, delta, l.W)
		// dIn and in share a shape; the re-slice proves it to the
		// compiler so the mask loop runs check-free.
		dd := dIn.Data[:len(in.Data)]
		for k, v := range in.Data {
			if v <= 0 {
				dd[k] = 0
			}
		}
		delta = dIn
	}
}
