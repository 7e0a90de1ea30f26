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
// non-nil it receives the softmax of all rows in one block
// (tensor.SoftmaxRows), and probs is unused (may be nil); otherwise
// probs must be a scratch slice of length ≥ logits.Cols that holds one
// row's softmax at a time. The computed values are identical to
// SoftmaxCE's.
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
	if dLogits == nil {
		for i := range losses {
			p := probs[:logits.Cols]
			tensor.SoftmaxRows(p, logits.Row(i), len(p))
			losses[i] = ceLoss(p, labels[i])
		}
		return losses
	}
	if dLogits.Rows != n || dLogits.Cols != logits.Cols {
		panic("nn: SoftmaxCE dLogits shape mismatch")
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
	softmax(dLogits, logits)
	for i := range losses {
		p := dLogits.Row(i)
		y := labels[i]
		losses[i] = ceLoss(p, y)
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
	return losses
}

// ceLoss is the cross-entropy of one sample from its softmax row p and
// label y: −log p[y], with p[y] clamped to ≥ 1e-12 so a vanishing
// probability costs a finite loss.
func ceLoss(p []float32, y int) float32 {
	if y < 0 || y >= len(p) {
		panic("nn: SoftmaxCE label out of range")
	}
	py := float64(p[y])
	if py < 1e-12 {
		py = 1e-12
	}
	return float32(-math.Log(py))
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
// emb must be shaped logits.Rows × logits.Cols, and receives the
// softmax of all rows in one block before each row's label entry drops
// by 1. Streaming selection reuses one such matrix per chunk.
//
//nessa:hotpath
func GradEmbeddingsInto(emb, logits *tensor.Matrix, labels []int) {
	checkEmbed(emb, logits, labels)
	softmax(emb, logits)
	for i, y := range labels {
		//nessa:bce-ok label is a data-dependent class index; the check is the guard against corrupt labels, paid once per k-wide softmax
		emb.Row(i)[y] -= 1
	}
}

// LossAndGradEmbeddingsInto is the selection pass's one softmax per
// candidate: emb (shaped as logits) receives the gradient embeddings
// GradEmbeddingsInto computes, and losses (length logits.Rows) the
// losses SoftmaxCEInto computes with nil weights, both from the same
// softmax row — the loss is read off p[y] before the 1 comes off it.
//
//nessa:hotpath
func LossAndGradEmbeddingsInto(losses []float32, emb, logits *tensor.Matrix, labels []int) {
	checkEmbed(emb, logits, labels)
	if len(losses) != len(labels) {
		panic("nn: LossAndGradEmbeddingsInto losses length mismatch")
	}
	softmax(emb, logits)
	for i, y := range labels {
		row := emb.Row(i)
		losses[i] = ceLoss(row, y)
		//nessa:bce-ok ceLoss has range-checked the label out of line; one check per k-wide softmax row
		row[y] -= 1
	}
}

// checkEmbed panics unless emb is shaped as logits, with one label per
// row.
func checkEmbed(emb, logits *tensor.Matrix, labels []int) {
	if emb.Rows != logits.Rows || emb.Cols != logits.Cols {
		panic("nn: gradient embedding shape mismatch")
	}
	if len(labels) != logits.Rows {
		panic("nn: gradient embedding labels length mismatch")
	}
}

// softmax writes the softmax of each row of logits into the same row
// of dst, shaped as logits, in one tensor.SoftmaxRows block.
func softmax(dst, logits *tensor.Matrix) {
	n := logits.Rows * logits.Cols
	tensor.SoftmaxRows(dst.Data[:n], logits.Data[:n], logits.Cols)
}
