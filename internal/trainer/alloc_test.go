package trainer

import (
	"testing"

	"nessa/internal/data"
	"nessa/internal/parallel"
)

func allocSpec() data.Spec {
	return data.Spec{
		Name: "alloc", Classes: 4, Train: 1000, BytesPerImage: 2048, Network: "ResNet-20",
		SimTrain: 512, SimTest: 128, FeatureDim: 32, Spread: 0.2, Seed: 99,
	}
}

// TestParallelEpochSteadyStateAllocs is the PR's headline regression
// gate: once the worker pool, arenas, and free lists are warm, a full
// parallel training epoch — batch gathers, forward, backward, SGD step,
// every banded GEMM inside — performs zero heap allocations. Any
// closure, scratch buffer, or descriptor that escapes back onto the
// heap fails this test.
func TestParallelEpochSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	prevW := parallel.Default().Workers()
	parallel.SetDefaultWorkers(4)
	defer parallel.SetDefaultWorkers(prevW)

	ds, _ := data.Generate(allocSpec())
	cfg := Default()
	cfg.Epochs = 4
	cfg.BatchSize = 64
	cfg.Hidden = []int{48}
	tr := New(ds.Spec, cfg)

	epoch := func() { tr.TrainEpoch(ds.X, ds.Labels, nil) }
	for i := 0; i < 3; i++ {
		epoch() // warm arenas, free lists, helper goroutines, worker IDs
	}
	if avg := testing.AllocsPerRun(10, epoch); avg > 0 {
		t.Errorf("steady-state parallel TrainEpoch allocates %.1f times, want 0", avg)
	}

	eval := func() { EvaluateModel(tr.Model, ds) }
	for i := 0; i < 3; i++ {
		eval()
	}
	if avg := testing.AllocsPerRun(10, eval); avg > 0 {
		t.Errorf("steady-state EvaluateModel allocates %.1f times, want 0", avg)
	}
}

// TestEvalArenaMatchesSerial pins the arena conversion semantics:
// chunked parallel evaluation is bit-identical to the single-worker
// pass.
func TestEvalArenaMatchesSerial(t *testing.T) {
	prevW := parallel.Default().Workers()
	defer parallel.SetDefaultWorkers(prevW)

	ds, _ := data.Generate(allocSpec())
	cfg := Default()
	cfg.Epochs = 2
	tr := New(ds.Spec, cfg)
	tr.TrainEpoch(ds.X, ds.Labels, nil)

	parallel.SetDefaultWorkers(1)
	accSerial := EvaluateModel(tr.Model, ds)
	for _, w := range []int{2, 5} {
		parallel.SetDefaultWorkers(w)
		if acc := EvaluateModel(tr.Model, ds); acc != accSerial {
			t.Errorf("workers=%d: accuracy %v differs from serial %v", w, acc, accSerial)
		}
	}
}
