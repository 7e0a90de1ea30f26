package trainer

import (
	"testing"

	"nessa/internal/data"
	"nessa/internal/tensor"
)

// tinySpec is a fast, easily separable dataset for unit tests.
func tinySpec() data.Spec {
	return data.Spec{
		Name: "tiny", Classes: 5, Train: 1000, BytesPerImage: 2048, Network: "ResNet-20",
		SimTrain: 500, SimTest: 200, FeatureDim: 16, Spread: 0.12, HardFrac: 0.1, NoiseFrac: 0.01, Seed: 11,
	}
}

func tinyCfg() Config {
	cfg := Default()
	cfg.Epochs = 25
	return cfg
}

func TestTrainFullLearns(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	_, met := TrainFull(tr, te, tinyCfg())
	if met.FinalAcc < 0.85 {
		t.Fatalf("full training reached %.3f, want >= 0.85 on an easy dataset", met.FinalAcc)
	}
	if len(met.EpochAcc) != 25 || len(met.EpochLoss) != 25 {
		t.Fatalf("metrics lengths = %d/%d, want 25", len(met.EpochAcc), len(met.EpochLoss))
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	_, met := TrainFull(tr, te, tinyCfg())
	first, last := met.EpochLoss[0], met.EpochLoss[len(met.EpochLoss)-1]
	if last >= first/2 {
		t.Fatalf("training loss %v -> %v; expected at least a halving", first, last)
	}
}

func TestWeightedSubsetApproximatesFull(t *testing.T) {
	// Training on a random half with weight 2 per sample should land
	// within a few points of full-data accuracy on an easy dataset.
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	_, fullMet := TrainFull(tr, te, cfg)

	half := make([]int, 0, tr.Len()/2)
	for i := 0; i < tr.Len(); i += 2 {
		half = append(half, i)
	}
	sub := tr.Subset(half)
	weights := make([]float32, sub.Len())
	for i := range weights {
		weights[i] = 2
	}
	tt := New(tr.Spec, cfg)
	for e := 0; e < cfg.Epochs; e++ {
		tt.SetEpoch(e)
		tt.TrainEpoch(sub.X, sub.Labels, weights)
	}
	subsetAcc := tt.Evaluate(te)
	if subsetAcc < fullMet.FinalAcc-0.08 {
		t.Fatalf("weighted half-subset accuracy %.3f too far below full %.3f", subsetAcc, fullMet.FinalAcc)
	}
}

func TestSetEpochFollowsSchedule(t *testing.T) {
	tr := New(tinySpec(), tinyCfg())
	tr.SetEpoch(0)
	lr0 := tr.Opt.LR()
	tr.SetEpoch(24) // past the 80 % milestone of a 25-epoch run
	lrLate := tr.Opt.LR()
	if lrLate >= lr0 {
		t.Fatalf("late LR %v not below initial %v", lrLate, lr0)
	}
}

func TestEvaluateModelEmptyDataset(t *testing.T) {
	spec := tinySpec()
	tr := New(spec, tinyCfg())
	ds := &data.Dataset{Spec: spec}
	if got := EvaluateModel(tr.Model, ds); got != 0 {
		t.Fatalf("empty evaluation = %v, want 0", got)
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := &Metrics{
		EpochAcc:    []float64{0.2, 0.5, 0.9, 0.85},
		SubsetSizes: []int{100, 50, 50, 25},
	}
	if got := m.BestAcc(); got != 0.9 {
		t.Errorf("BestAcc = %v, want 0.9", got)
	}
	if got := m.EpochsToReach(0.5); got != 2 {
		t.Errorf("EpochsToReach(0.5) = %d, want 2", got)
	}
	if got := m.EpochsToReach(0.95); got != -1 {
		t.Errorf("EpochsToReach(0.95) = %d, want -1", got)
	}
	if got := m.SamplesSeen(); got != 225 {
		t.Errorf("SamplesSeen = %d, want 225", got)
	}
}

func TestTrainEpochEmptyInput(t *testing.T) {
	tr := New(tinySpec(), tinyCfg())
	x := tensor.NewMatrix(0, 16)
	if loss := tr.TrainEpoch(x, nil, nil); loss != 0 {
		t.Fatalf("empty epoch loss = %v, want 0", loss)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero epochs")
		}
	}()
	New(tinySpec(), Config{})
}
