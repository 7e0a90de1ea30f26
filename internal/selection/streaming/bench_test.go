package streaming

import (
	"math"
	"testing"

	"nessa/internal/tensor"
)

// softmaxGrads builds n gradient embeddings of the kind the e2e
// stream_select workload pushes: softmax(z) − onehot(y) over `classes`
// logits, labels round-robin, z drawn around one of 32 centers with a
// margin on the label's logit, so most records are confidently right
// and their gradients small, as they are once a model has trained.
func softmaxGrads(seed uint64, n, classes int) (*tensor.Matrix, []int) {
	rng := tensor.NewRNG(seed)
	centers := tensor.NewMatrix(32, classes)
	centers.FillNormal(rng, 2)
	emb := tensor.NewMatrix(n, classes)
	labels := make([]int, n)
	z := make([]float32, classes)
	for i := 0; i < n; i++ {
		c := centers.Row(rng.Intn(32))
		for j := range z {
			z[j] = c[j] + rng.NormFloat32()*0.5
		}
		labels[i] = i % classes
		z[labels[i]] += 4
		row := emb.Row(i)
		tensor.Softmax(row, z)
		row[labels[i]]--
	}
	return emb, labels
}

// The stream_select shape: Dim 10, 10 classes, K 500, a 100,000-record
// stream in 8,192-row batches.
const (
	benchClasses = 10
	benchK       = 500
	benchRecords = 100000
	benchBatch   = 8192
)

func benchSelector(b *testing.B) (*Selector, *tensor.Matrix, []int) {
	emb, labels := softmaxGrads(7, benchRecords, benchClasses)
	sel, err := NewSelector(Config{Classes: benchClasses, Dim: benchClasses, K: benchK, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return sel, emb, labels
}

// batch returns rows [lo, min(lo+benchBatch, n)) of emb as a view.
func batch(emb *tensor.Matrix, labels []int, lo int) (*tensor.Matrix, []int) {
	hi := min(lo+benchBatch, emb.Rows)
	return &tensor.Matrix{Rows: hi - lo, Cols: emb.Cols, Data: emb.Data[lo*emb.Cols : hi*emb.Cols]}, labels[lo:hi]
}

// BenchmarkSelectorPush times one 8,192-row Push, cycling through the
// stream (a Reset at each pass's start, as a reselection epoch does).
func BenchmarkSelectorPush(b *testing.B) {
	sel, emb, labels := benchSelector(b)
	cfg := sel.cfg
	lo := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lo >= emb.Rows {
			b.StopTimer()
			if err := sel.Reset(cfg); err != nil {
				b.Fatal(err)
			}
			lo = 0
			b.StartTimer()
		}
		e, l := batch(emb, labels, lo)
		if err := sel.Push(e, nil, l); err != nil {
			b.Fatal(err)
		}
		lo += e.Rows
	}
	b.ReportMetric(float64(b.N)*benchBatch/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSelectorFinish times Finish on the state one whole
// 100,000-record pass leaves.
func BenchmarkSelectorFinish(b *testing.B) {
	sel, emb, labels := benchSelector(b)
	for lo := 0; lo < emb.Rows; lo += benchBatch {
		e, l := batch(emb, labels, lo)
		if err := sel.Push(e, nil, l); err != nil {
			b.Fatal(err)
		}
	}
	var obj float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := sel.Finish()
		if err != nil {
			b.Fatal(err)
		}
		obj = res.Objective
	}
	if math.IsNaN(obj) || obj <= 0 {
		b.Fatalf("objective %v", obj)
	}
}
