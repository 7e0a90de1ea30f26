package nn

import (
	"math"

	"nessa/internal/tensor"
)

// SoftmaxCE computes, for a batch of logits (n × C) and integer labels,
// the per-sample cross-entropy losses and, if dLogits is non-nil, the
// gradient of the *weighted mean* loss with respect to the logits:
//
//	dLogits[i] = w_i/Σw · (softmax(logits_i) − onehot(y_i))
//
// weights may be nil for uniform weighting. This weighted form is what
// coreset training uses: each selected medoid carries the size of the
// cluster it represents (CRAIG, Mirzasoleiman et al. 2020).
func SoftmaxCE(logits *tensor.Matrix, labels []int, weights []float32, dLogits *tensor.Matrix) []float32 {
	losses := make([]float32, logits.Rows)
	var probs []float32
	if dLogits == nil {
		probs = make([]float32, logits.Cols)
	}
	return SoftmaxCEInto(losses, probs, logits, labels, weights, dLogits)
}

// SoftmaxCEInto is the allocation-free form of SoftmaxCE: losses (length
// n) receives the per-sample losses and is returned. When dLogits is
// non-nil its rows double as the softmax buffer, and probs is unused
// (may be nil); otherwise probs must be a scratch slice of length
// ≥ logits.Cols. The computed values are identical to SoftmaxCE's.
//
//nessa:hotpath
func SoftmaxCEInto(losses, probs []float32, logits *tensor.Matrix, labels []int, weights []float32, dLogits *tensor.Matrix) []float32 {
	n := logits.Rows
	if len(labels) != n {
		panic("nn: SoftmaxCE labels length mismatch")
	}
	if len(losses) != n {
		panic("nn: SoftmaxCE losses length mismatch")
	}
	if weights != nil && len(weights) != n {
		panic("nn: SoftmaxCE weights length mismatch")
	}
	var wsum float64
	if weights == nil {
		wsum = float64(n)
	} else {
		for _, w := range weights {
			wsum += float64(w)
		}
	}
	if wsum == 0 {
		wsum = 1
	}
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		p := probs
		if dLogits != nil {
			p = dLogits.Row(i)
		}
		p = p[:logits.Cols]
		tensor.Softmax(p, row)
		y := labels[i]
		if y < 0 || y >= logits.Cols {
			panic("nn: SoftmaxCE label out of range")
		}
		py := float64(p[y])
		if py < 1e-12 {
			py = 1e-12
		}
		losses[i] = float32(-math.Log(py))
		if dLogits != nil {
			w := float32(1)
			if weights != nil {
				w = weights[i]
			}
			scale := w / float32(wsum)
			for j := range p {
				p[j] *= scale
			}
			p[y] -= scale
		}
	}
	return losses
}

// GradEmbeddings returns the last-layer gradient embedding of each
// sample: softmax(logits_i) − onehot(y_i), a C-dimensional vector.
// This is the exact gradient of cross-entropy with respect to the
// output-layer pre-activations and is the gradient proxy CRAIG and
// NeSSA cluster on (paper §3.1, Eq. 4–5).
func GradEmbeddings(logits *tensor.Matrix, labels []int) *tensor.Matrix {
	emb := tensor.NewMatrix(logits.Rows, logits.Cols)
	GradEmbeddingsInto(emb, logits, labels)
	return emb
}

// GradEmbeddingsInto is the allocation-free form of GradEmbeddings:
// emb must be shaped logits.Rows × logits.Cols, and each of its rows
// doubles as the softmax buffer. Streaming selection reuses one such
// matrix per chunk.
//
//nessa:hotpath
func GradEmbeddingsInto(emb, logits *tensor.Matrix, labels []int) {
	n := logits.Rows
	if emb.Rows != n || emb.Cols != logits.Cols {
		panic("nn: GradEmbeddingsInto shape mismatch")
	}
	if len(labels) != n {
		panic("nn: GradEmbeddingsInto labels length mismatch")
	}
	for i := 0; i < n; i++ {
		row := emb.Row(i)
		tensor.Softmax(row, logits.Row(i))
		//nessa:bce-ok label is a data-dependent class index; the check is the guard against corrupt labels, paid once per k-wide softmax
		row[labels[i]] -= 1
	}
}
