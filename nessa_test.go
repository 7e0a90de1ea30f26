package nessa_test

import (
	"testing"

	"nessa"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	spec, ok := nessa.LookupDataset("MNIST")
	if !ok {
		t.Fatal("MNIST not found")
	}
	spec.SimTrain, spec.SimTest = 500, 200
	train, test := nessa.Generate(spec)

	cfg := nessa.DefaultTrainConfig()
	cfg.Epochs = 12

	full := nessa.TrainFullData(train, test, cfg)
	if full.FinalAcc < 0.7 {
		t.Fatalf("full-data accuracy %.3f too low on MNIST proxy", full.FinalAcc)
	}

	opt := nessa.DefaultOptions()
	opt.BiasEvery = 5
	opt.BiasWindow = 2
	rep, err := nessa.Train(train, test, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.FinalAcc < full.FinalAcc-0.12 {
		t.Fatalf("NeSSA %.3f too far below full %.3f", rep.Metrics.FinalAcc, full.FinalAcc)
	}
	if rep.Metrics.SamplesSeen() >= full.SamplesSeen() {
		t.Fatal("NeSSA did not reduce gradient computations")
	}
}

func TestPublicAPIDeviceFlow(t *testing.T) {
	spec, _ := nessa.LookupDataset("MNIST")
	spec.SimTrain, spec.SimTest = 300, 100
	train, _ := nessa.Generate(spec)

	dev, err := nessa.NewSmartSSD()
	if err != nil {
		t.Fatal(err)
	}
	img, err := nessa.EncodeDataset(train)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.StoreDataset("mnist", img); err != nil {
		t.Fatal(err)
	}
	back, err := nessa.DecodeDataset(spec, img)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != train.Len() {
		t.Fatalf("decode length %d != %d", back.Len(), train.Len())
	}
}

func TestPublicAPISelectCoreset(t *testing.T) {
	spec, _ := nessa.LookupDataset("MNIST")
	spec.SimTrain, spec.SimTest = 400, 100
	train, _ := nessa.Generate(spec)

	res, err := nessa.SelectCoreset(train.X, train.ClassIndex(), 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 40 || len(res.Weights) != 40 {
		t.Fatalf("coreset size = %d/%d weights, want 40", len(res.Selected), len(res.Weights))
	}
	var sum float32
	for _, w := range res.Weights {
		sum += w
	}
	if int(sum+0.5) != train.Len() {
		t.Fatalf("weights sum %.0f != candidates %d", sum, train.Len())
	}
}

// TestPublicAPIDistributedSelection drives the facade's multi-drive
// surface: proxy embeddings for the whole set and one sharded scan
// across a 4-drive cluster.
func TestPublicAPIDistributedSelection(t *testing.T) {
	spec, _ := nessa.LookupDataset("MNIST")
	spec.SimTrain, spec.SimTest = 400, 100
	train, _ := nessa.Generate(spec)

	cfg := nessa.DefaultTrainConfig()
	emb := nessa.ProxyEmbeddings(train, cfg, 2)
	if emb.Rows != train.Len() || emb.Cols != spec.Classes {
		t.Fatalf("embeddings shape %dx%d, want %dx%d", emb.Rows, emb.Cols, train.Len(), spec.Classes)
	}

	cluster, err := nessa.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	img, err := nessa.EncodeDataset(train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.ShardDataset("mnist", img, spec.BytesPerImage); err != nil {
		t.Fatal(err)
	}
	shards, _, wall, err := cluster.ParallelScan("mnist", spec.BytesPerImage)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 || wall <= 0 {
		t.Fatalf("scan returned %d shards, wall %v", len(shards), wall)
	}
}

func TestPublicAPIBaselineSelectors(t *testing.T) {
	spec, _ := nessa.LookupDataset("MNIST")
	spec.SimTrain, spec.SimTest = 300, 100
	train, test := nessa.Generate(spec)
	cfg := nessa.DefaultTrainConfig()
	cfg.Epochs = 5
	for _, sel := range []nessa.Options{
		{Selector: nessa.SelectorRandom, SubsetFrac: 0.3, SelectEvery: 1},
		{Selector: nessa.SelectorTopLoss, SubsetFrac: 0.3, SelectEvery: 1},
	} {
		rep, err := nessa.Train(train, test, cfg, sel)
		if err != nil {
			t.Fatalf("%s: %v", sel.Selector, err)
		}
		if len(rep.Metrics.EpochAcc) != 5 {
			t.Fatalf("%s: recorded %d epochs, want 5", sel.Selector, len(rep.Metrics.EpochAcc))
		}
	}
}

func TestDatasetsRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, s := range nessa.Datasets() {
		names[s.Name] = true
	}
	for _, want := range []string{"CIFAR-10", "SVHN", "CINIC-10", "CIFAR-100", "TinyImageNet", "ImageNet-100"} {
		if !names[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}
