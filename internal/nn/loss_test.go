package nn

import (
	"math"
	"testing"

	"nessa/internal/tensor"
)

// hostileLogits fills rows × cols logits, by turn N(0, 4²) rows, rows
// spread so that x − max reaches the exponential's denormal and
// underflow ranges, and rows holding NaN, ±Inf, ±0 or a denormal; one
// row in eight is all −Inf.
func hostileLogits(r *tensor.RNG, rows, cols int) *tensor.Matrix {
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0,
		float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -730}
	m := tensor.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		kind := r.Intn(8)
		for j := range row {
			switch kind {
			case 1:
				row[j] = r.NormFloat32() * 300
			case 2:
				row[j] = float32(math.Inf(-1))
			default:
				row[j] = r.NormFloat32() * 4
			}
		}
		if kind == 3 || kind == 4 {
			row[r.Intn(cols)] = special[r.Intn(len(special))]
		}
	}
	return m
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestLossAndGradEmbeddingsMatchSeparatePasses: the one-softmax entry
// point gives, bit for bit, the losses of SoftmaxCEInto (nil weights,
// one row at a time through probs) and the embeddings of
// GradEmbeddingsInto, on hostile logits of 0–70 rows and 1–300
// classes; and SoftmaxCEInto's losses are the same whether or not it
// also writes dLogits.
func TestLossAndGradEmbeddingsMatchSeparatePasses(t *testing.T) {
	r := tensor.NewRNG(5)
	for _, cols := range []int{1, 2, 3, 10, 15, 100, 129, 300} {
		for rows := 0; rows <= 70; rows += 1 + rows/8 {
			logits := hostileLogits(r, rows, cols)
			labels := make([]int, rows)
			for i := range labels {
				labels[i] = r.Intn(cols)
			}
			wantLoss := make([]float32, rows)
			SoftmaxCEInto(wantLoss, make([]float32, cols), logits, labels, nil, nil)
			wantEmb := tensor.NewMatrix(rows, cols)
			GradEmbeddingsInto(wantEmb, logits, labels)

			loss := make([]float32, rows)
			emb := tensor.NewMatrix(rows, cols)
			LossAndGradEmbeddingsInto(loss, emb, logits, labels)
			if i := sameBits(loss, wantLoss); i >= 0 {
				t.Fatalf("%d×%d: loss %d = %v, SoftmaxCEInto %v", rows, cols, i, loss[i], wantLoss[i])
			}
			if i := sameBits(emb.Data, wantEmb.Data); i >= 0 {
				t.Fatalf("%d×%d: embedding element %d = %v, GradEmbeddingsInto %v", rows, cols, i, emb.Data[i], wantEmb.Data[i])
			}

			SoftmaxCEInto(loss, nil, logits, labels, nil, tensor.NewMatrix(rows, cols))
			if i := sameBits(loss, wantLoss); i >= 0 {
				t.Fatalf("%d×%d: loss %d with dLogits = %v, without %v", rows, cols, i, loss[i], wantLoss[i])
			}
		}
	}
}

// TestLossAndGradEmbeddingsSteadyStateAllocs: the embed pass's softmax
// allocates nothing.
func TestLossAndGradEmbeddingsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	logits, labels, losses, emb := embedChunkRig(1024, 10)
	if avg := testing.AllocsPerRun(20, func() { LossAndGradEmbeddingsInto(losses, emb, logits, labels) }); avg != 0 {
		t.Errorf("LossAndGradEmbeddingsInto allocates %.1f times per call, want 0", avg)
	}
}

// embedChunkRig returns the operands of one embed chunk: rows × cols
// N(0, 4²) logits, labels, and the loss and embedding outputs.
func embedChunkRig(rows, cols int) (logits *tensor.Matrix, labels []int, losses []float32, emb *tensor.Matrix) {
	r := tensor.NewRNG(1)
	logits = tensor.NewMatrix(rows, cols)
	logits.FillNormal(r, 4)
	labels = make([]int, rows)
	for i := range labels {
		labels[i] = r.Intn(cols)
	}
	return logits, labels, make([]float32, rows), tensor.NewMatrix(rows, cols)
}

// BenchmarkLossAndGradEmbeddings times one embed chunk at the selection
// pass's default shape: 8,192 candidates of 10 classes.
func BenchmarkLossAndGradEmbeddings(b *testing.B) {
	logits, labels, losses, emb := embedChunkRig(8192, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LossAndGradEmbeddingsInto(losses, emb, logits, labels)
	}
}
