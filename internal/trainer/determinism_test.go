package trainer

import (
	"math"
	"slices"
	"testing"

	"nessa/internal/data"
	"nessa/internal/nn"
	"nessa/internal/parallel"
	"nessa/internal/tensor"
)

// trainRun trains a fresh model for a few epochs at the current worker
// setting and returns the per-epoch losses and the final weights.
func trainRun(t *testing.T, epochs int) ([]float64, []float32) {
	t.Helper()
	tr, _ := data.Generate(tinySpec())
	cfg := tinyCfg()
	cfg.Epochs = epochs
	tt := New(tr.Spec, cfg)
	losses := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		tt.SetEpoch(e)
		losses = append(losses, tt.TrainEpoch(tr.X, tr.Labels, nil))
	}
	var weights []float32
	for _, l := range tt.Model.Layers {
		weights = append(weights, l.W.Data...)
		weights = append(weights, l.B...)
	}
	return losses, weights
}

// TestTrainEpochWorkerCountInvariant is the trainer-level determinism
// contract: the entire optimization trajectory — every epoch loss and
// every final parameter — must be bit-identical at any worker count.
// This is what makes the parallel GEMM bands and chunked evaluation
// safe to enable by default.
func TestTrainEpochWorkerCountInvariant(t *testing.T) {
	defer parallel.SetDefaultWorkers(0)
	parallel.SetDefaultWorkers(1)
	refLosses, refWeights := trainRun(t, 4)

	for _, w := range []int{2, 3, 8} {
		parallel.SetDefaultWorkers(w)
		losses, weights := trainRun(t, 4)
		for e := range refLosses {
			if losses[e] != refLosses[e] {
				t.Fatalf("workers=%d epoch %d loss %v != serial %v", w, e, losses[e], refLosses[e])
			}
		}
		for i := range refWeights {
			if math.Float32bits(weights[i]) != math.Float32bits(refWeights[i]) {
				t.Fatalf("workers=%d parameter %d = %v, serial %v (bitwise)", w, i, weights[i], refWeights[i])
			}
		}
	}
}

// TestChunkedEvalMatchesFullPass verifies that the chunked parallel
// inference path (EvaluateModel) produces exactly the single-pass
// result: each logit row depends only on its own input row, so
// chunking is invisible.
func TestChunkedEvalMatchesFullPass(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	cfg.Epochs = 3
	model, _ := TrainFull(tr, te, cfg)

	// Reference: one whole-dataset forward pass, no chunking.
	var fwd nn.FwdScratch
	logits, correct := model.ForwardInto(&fwd, te.X), 0
	for i, y := range te.Labels {
		if tensor.Argmax(logits.Row(i)) == y {
			correct++
		}
	}
	refAcc := float64(correct) / float64(te.Len())

	defer parallel.SetDefaultWorkers(0)
	for _, w := range []int{1, 2, 7} {
		parallel.SetDefaultWorkers(w)
		if acc := EvaluateModel(model, te); acc != refAcc {
			t.Fatalf("workers=%d EvaluateModel = %v, full pass %v", w, acc, refAcc)
		}
	}
}

// TestTrainEpochSteadyStateAllocs locks in the zero-allocation epoch:
// after the first epoch warms the scratch arena, TrainEpoch must not
// allocate. The small tolerance absorbs rare sync.Pool refills after a
// GC; the regression guarded against is hundreds of allocations per
// epoch.
func TestTrainEpochSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr, _ := data.Generate(tinySpec())
	tt := New(tr.Spec, tinyCfg())
	weights := make([]float32, tr.Len())
	for i := range weights {
		weights[i] = 1 + float32(i%3)
	}
	epoch := func() { tt.TrainEpoch(tr.X, tr.Labels, weights) }
	epoch() // warm the scratch buffers
	if avg := testing.AllocsPerRun(10, epoch); avg > 8 {
		t.Fatalf("steady-state TrainEpoch allocates %.1f times, want ~0", avg)
	}
}

// TestTrainRowsSteadyStateAllocs: training through a row list of x is
// training on the copied-out subset, bit for bit — losses and weights
// over several epochs — and once warm an epoch allocates nothing, with
// no subset to build.
func TestTrainRowsSteadyStateAllocs(t *testing.T) {
	tr, _ := data.Generate(tinySpec())
	var rows []int
	for i := 0; i < tr.Len(); i += 1 + i%4 {
		rows = append(rows, i)
	}
	weights := make([]float32, len(rows))
	for i := range weights {
		weights[i] = 1 + float32(i%3)
	}
	sub := tr.Subset(rows)
	a, b := New(tr.Spec, tinyCfg()), New(tr.Spec, tinyCfg())
	for e := 0; e < 3; e++ {
		la := a.TrainEpoch(sub.X, sub.Labels, weights)
		lb := b.TrainRows(tr.X, tr.Labels, rows, weights)
		if math.Float64bits(la) != math.Float64bits(lb) {
			t.Fatalf("epoch %d: TrainRows loss %v, TrainEpoch on the subset %v", e, lb, la)
		}
	}
	for i, l := range a.Model.Layers {
		if !slices.Equal(l.W.Data, b.Model.Layers[i].W.Data) {
			t.Fatalf("layer %d weights differ between TrainRows and TrainEpoch on the subset", i)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if avg := testing.AllocsPerRun(10, func() { b.TrainRows(tr.X, tr.Labels, rows, weights) }); avg > 8 {
		t.Fatalf("steady-state TrainRows allocates %.1f times, want ~0", avg)
	}
}
