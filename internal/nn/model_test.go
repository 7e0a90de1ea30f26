package nn

import (
	"math"
	"testing"
	"testing/quick"

	"nessa/internal/tensor"
)

func TestMLPForwardShape(t *testing.T) {
	r := tensor.NewRNG(1)
	m := NewMLP(r, 8, []int{16}, 4)
	x := tensor.NewMatrix(5, 8)
	x.FillNormal(r, 1)
	logits := m.Forward(x)
	if logits.Rows != 5 || logits.Cols != 4 {
		t.Fatalf("logits shape %dx%d, want 5x4", logits.Rows, logits.Cols)
	}
}

func TestMLPNumParams(t *testing.T) {
	r := tensor.NewRNG(1)
	m := NewMLP(r, 10, []int{20}, 3)
	// 10*20 + 20 + 20*3 + 3 = 283
	if got := m.NumParams(); got != 283 {
		t.Fatalf("NumParams = %d, want 283", got)
	}
}

func TestMLPCloneIndependence(t *testing.T) {
	r := tensor.NewRNG(2)
	m := NewMLP(r, 4, nil, 3)
	c := m.Clone()
	m.Layers[0].W.Data[0] += 100
	if c.Layers[0].W.Data[0] == m.Layers[0].W.Data[0] {
		t.Fatal("clone shares weight storage with original")
	}
}

// Numerical gradient check: backprop gradients must match finite
// differences of the loss.
func TestBackwardMatchesNumericalGradient(t *testing.T) {
	r := tensor.NewRNG(3)
	m := NewMLP(r, 5, []int{7}, 3)
	x := tensor.NewMatrix(4, 5)
	x.FillNormal(r, 1)
	labels := []int{0, 2, 1, 2}

	loss := func() float64 {
		logits := m.Forward(x)
		ls := SoftmaxCE(logits, labels, nil, nil)
		var sum float64
		for _, l := range ls {
			sum += float64(l)
		}
		return sum / float64(len(ls))
	}

	logits := m.Forward(x)
	dLogits := tensor.NewMatrix(4, 3)
	SoftmaxCE(logits, labels, nil, dLogits)
	g := NewGrads(m)
	m.Backward(g, dLogits)

	const eps = 1e-3
	// Spot-check a sample of weights in each layer.
	for li, l := range m.Layers {
		checks := []int{0, len(l.W.Data) / 2, len(l.W.Data) - 1}
		for _, k := range checks {
			orig := l.W.Data[k]
			l.W.Data[k] = orig + eps
			up := loss()
			l.W.Data[k] = orig - eps
			down := loss()
			l.W.Data[k] = orig
			numGrad := (up - down) / (2 * eps)
			got := float64(g.W[li].Data[k])
			if math.Abs(numGrad-got) > 1e-2*(1+math.Abs(numGrad)) {
				t.Errorf("layer %d weight %d: backprop grad %v, numerical %v", li, k, got, numGrad)
			}
		}
	}
}

func TestSoftmaxCELossValue(t *testing.T) {
	// Uniform logits over C classes → loss = ln C.
	logits := tensor.NewMatrix(1, 4)
	losses := SoftmaxCE(logits, []int{2}, nil, nil)
	want := math.Log(4)
	if math.Abs(float64(losses[0])-want) > 1e-5 {
		t.Fatalf("uniform CE loss = %v, want ln4 = %v", losses[0], want)
	}
}

func TestSoftmaxCEWeightedGradScaling(t *testing.T) {
	logits := tensor.FromRows([][]float32{{1, 2, 0}, {0, 1, 3}})
	labels := []int{0, 2}

	dUniform := tensor.NewMatrix(2, 3)
	SoftmaxCE(logits, labels, nil, dUniform)

	// Weighting sample 0 by 3 and sample 1 by 1: sample 0's gradient
	// share should triple relative to sample 1's.
	dWeighted := tensor.NewMatrix(2, 3)
	SoftmaxCE(logits, labels, []float32{3, 1}, dWeighted)

	ratioUniform := dUniform.At(0, 1) / dUniform.At(1, 1)
	ratioWeighted := dWeighted.At(0, 1) / dWeighted.At(1, 1)
	if math.Abs(float64(ratioWeighted/ratioUniform-3)) > 1e-4 {
		t.Errorf("weighted gradient ratio = %v× uniform, want 3×", ratioWeighted/ratioUniform)
	}
}

func TestGradEmbeddingsSumToZero(t *testing.T) {
	// Each embedding is softmax − onehot, so its components sum to 0.
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n, c := 1+r.Intn(8), 2+r.Intn(6)
		logits := tensor.NewMatrix(n, c)
		logits.FillNormal(r, 2)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(c)
		}
		emb := GradEmbeddings(logits, labels)
		for i := 0; i < n; i++ {
			var sum float64
			for _, v := range emb.Row(i) {
				sum += float64(v)
			}
			if math.Abs(sum) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGradEmbeddingNormReflectsDifficulty(t *testing.T) {
	// A confidently correct sample has a small embedding; a confidently
	// wrong one approaches norm sqrt(2).
	logits := tensor.FromRows([][]float32{
		{10, 0, 0}, // confident class 0
		{10, 0, 0}, // same logits, wrong label
	})
	emb := GradEmbeddings(logits, []int{0, 1})
	easy := tensor.Norm(emb.Row(0))
	hard := tensor.Norm(emb.Row(1))
	if easy >= hard {
		t.Fatalf("easy sample embedding norm %v should be < hard %v", easy, hard)
	}
	if hard < 1.0 {
		t.Errorf("confidently wrong sample norm = %v, want near sqrt2", hard)
	}
}

func TestSGDReducesLossOnToyProblem(t *testing.T) {
	r := tensor.NewRNG(7)
	// Linearly separable 2-class blobs.
	n := 60
	x := tensor.NewMatrix(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		off := float32(2*cls) - 1 // -1 or +1
		x.Set(i, 0, float32(off*2)+float32(r.NormFloat32()*0.3))
		x.Set(i, 1, float32(off*2)+float32(r.NormFloat32()*0.3))
	}
	m := NewMLP(r, 2, []int{8}, 2)
	opt := NewSGD(m, SGDConfig{LR: 0.1, Momentum: 0.9, WeightDecay: 1e-4})
	g := NewGrads(m)
	dLogits := tensor.NewMatrix(n, 2)

	meanLoss := func() float64 {
		ls := SoftmaxCE(m.Forward(x), labels, nil, nil)
		var s float64
		for _, l := range ls {
			s += float64(l)
		}
		return s / float64(n)
	}
	before := meanLoss()
	for epoch := 0; epoch < 50; epoch++ {
		logits := m.Forward(x)
		SoftmaxCE(logits, labels, nil, dLogits)
		g.Zero()
		m.Backward(g, dLogits)
		opt.Step(m, g)
	}
	after := meanLoss()
	if after >= before/2 {
		t.Fatalf("SGD failed to optimize: loss %v -> %v", before, after)
	}
	logits, correct := m.Forward(x), 0
	for i, y := range labels {
		if tensor.Argmax(logits.Row(i)) == y {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Fatalf("training accuracy = %v, want >= 0.95 on separable blobs", acc)
	}
}

func TestStepSchedule(t *testing.T) {
	s := PaperSchedule()
	cases := []struct {
		epoch int
		want  float32
	}{
		{0, 0.1},
		{59, 0.1},
		{60, 0.02},
		{119, 0.02},
		{120, 0.004},
		{160, 0.0008},
		{199, 0.0008},
	}
	for _, c := range cases {
		got := s.LRAt(c.epoch, 200)
		if math.Abs(float64(got-c.want)) > 1e-7 {
			t.Errorf("LRAt(%d, 200) = %v, want %v", c.epoch, got, c.want)
		}
	}
}

func TestStepScheduleMonotoneNonIncreasing(t *testing.T) {
	s := PaperSchedule()
	prev := s.LRAt(0, 123)
	for e := 1; e < 123; e++ {
		cur := s.LRAt(e, 123)
		if cur > prev {
			t.Fatalf("LR increased at epoch %d: %v -> %v", e, prev, cur)
		}
		prev = cur
	}
}

func TestSGDPanicsOnBadLR(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for LR <= 0")
		}
	}()
	r := tensor.NewRNG(1)
	NewSGD(NewMLP(r, 2, nil, 2), SGDConfig{LR: 0})
}
