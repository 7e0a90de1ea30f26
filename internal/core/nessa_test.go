package core

import (
	"math"
	"slices"
	"testing"

	"nessa/internal/data"
	"nessa/internal/smartssd"
	"nessa/internal/trainer"
)

// tinySpec is a fast dataset for controller tests.
func tinySpec() data.Spec {
	return data.Spec{
		Name: "tiny", Classes: 5, Train: 1000, BytesPerImage: 2048, Network: "ResNet-20",
		SimTrain: 600, SimTest: 250, FeatureDim: 16, Spread: 0.14, HardFrac: 0.15, NoiseFrac: 0.01, Seed: 21,
	}
}

func tinyCfg() trainer.Config {
	cfg := trainer.Default()
	cfg.Epochs = 30
	return cfg
}

// tinyOptions scales the paper constants to a 30-epoch run.
func tinyOptions() Options {
	opt := DefaultOptions()
	opt.BiasEvery = 10
	opt.BiasWindow = 3
	opt.PartitionM = 8
	// Faster shrink dynamics so 30-epoch test runs exercise them.
	opt.LossDecayRate = 0.05
	opt.ShrinkPatience = 2
	return opt
}

func TestNeSSACloseToFullData(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	_, fullMet := trainer.TrainFull(tr, te, cfg)

	rep, err := Run(tr, te, cfg, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.FinalAcc < fullMet.FinalAcc-0.06 {
		t.Fatalf("NeSSA accuracy %.3f too far below full-data %.3f", rep.Metrics.FinalAcc, fullMet.FinalAcc)
	}
	if rep.AvgSubsetFrac > 0.55 {
		t.Fatalf("NeSSA trained on %.0f%% of data on average; expected a real reduction", rep.AvgSubsetFrac*100)
	}
}

func TestNeSSABeatsRandomAtSameBudget(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()

	nessa := tinyOptions()
	nessa.DynamicSizing = false
	nessa.SubsetBias = false
	nessa.SubsetFrac = 0.2

	random := nessa
	random.Selector = SelectorRandom

	repN, err := Run(tr, te, cfg, nessa)
	if err != nil {
		t.Fatal(err)
	}
	repR, err := Run(tr, te, cfg, random)
	if err != nil {
		t.Fatal(err)
	}
	if repN.Metrics.BestAcc() < repR.Metrics.BestAcc()-0.01 {
		t.Fatalf("facility selection (%.3f) worse than random (%.3f) at 20%% budget",
			repN.Metrics.BestAcc(), repR.Metrics.BestAcc())
	}
}

func TestSubsetBiasingShrinksCandidatePool(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	opt := tinyOptions()
	opt.DynamicSizing = false

	rep, err := Run(tr, te, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 {
		t.Fatal("subset biasing never dropped a learned sample on an easy dataset")
	}
	if rep.CandidatesLeft >= tr.Len() {
		t.Fatal("candidate pool did not shrink")
	}
	if rep.CandidatesLeft+rep.Dropped != tr.Len() {
		t.Fatalf("pool accounting broken: %d left + %d dropped != %d",
			rep.CandidatesLeft, rep.Dropped, tr.Len())
	}
}

func TestDynamicSizingShrinksSubset(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	opt := tinyOptions()
	opt.SubsetBias = false

	rep, err := Run(tr, te, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	first := rep.EpochSubsetFrac[0]
	last := rep.FinalSubsetFrac
	if last >= first {
		t.Fatalf("subset fraction never shrank: %.2f -> %.2f", first, last)
	}
	if last < opt.MinSubsetFrac-1e-9 {
		t.Fatalf("subset fraction %.3f fell below floor %.3f", last, opt.MinSubsetFrac)
	}
}

func TestFixedSubsetStaysFixed(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	opt := tinyOptions()
	opt.DynamicSizing = false
	opt.SubsetBias = false
	opt.SubsetFrac = 0.3

	rep, err := Run(tr, te, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	for e, f := range rep.EpochSubsetFrac {
		if f < 0.29 || f > 0.31 {
			t.Fatalf("epoch %d subset fraction = %.3f, want 0.30 fixed", e, f)
		}
	}
}

func TestQuantFeedbackMatchesUnquantized(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	q := tinyOptions()
	q.DynamicSizing = false
	u := q
	u.QuantFeedback = false

	repQ, err := Run(tr, te, cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	repU, err := Run(tr, te, cfg, u)
	if err != nil {
		t.Fatal(err)
	}
	// int8 feedback should cost at most a couple points vs ideal float
	// feedback (§3.2.1's claim is that quantized feedback suffices).
	if repQ.Metrics.BestAcc() < repU.Metrics.BestAcc()-0.04 {
		t.Fatalf("quantized feedback %.3f much worse than unquantized %.3f",
			repQ.Metrics.BestAcc(), repU.Metrics.BestAcc())
	}
}

func TestKCentersAndRandomSelectorsRun(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	cfg.Epochs = 8
	for _, sel := range []Selector{SelectorKCenters, SelectorRandom, SelectorTopLoss} {
		opt := tinyOptions()
		opt.Selector = sel
		opt.DynamicSizing = false
		opt.SubsetBias = false
		rep, err := Run(tr, te, cfg, opt)
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		if len(rep.Metrics.EpochAcc) != 8 {
			t.Fatalf("%s: %d epochs recorded, want 8", sel, len(rep.Metrics.EpochAcc))
		}
	}
}

func TestStaleSelectionIsWorseOrEqual(t *testing.T) {
	// The feedback-staleness knob behind NeSSA vs CRAIG: refreshing the
	// selection model every epoch should do at least as well as every 5.
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	fresh := tinyOptions()
	fresh.DynamicSizing = false
	fresh.SubsetBias = false
	fresh.SubsetFrac = 0.2
	stale := fresh
	stale.SelectEvery = 5

	repF, err := Run(tr, te, cfg, fresh)
	if err != nil {
		t.Fatal(err)
	}
	repS, err := Run(tr, te, cfg, stale)
	if err != nil {
		t.Fatal(err)
	}
	if repF.Metrics.BestAcc() < repS.Metrics.BestAcc()-0.03 {
		t.Fatalf("fresh feedback %.3f clearly worse than stale %.3f — feedback loop broken",
			repF.Metrics.BestAcc(), repS.Metrics.BestAcc())
	}
}

func TestDeviceAccounting(t *testing.T) {
	spec := tinySpec()
	tr, te := data.Generate(spec)
	cfg := tinyCfg()
	cfg.Epochs = 6

	dev, err := smartssd.New()
	if err != nil {
		t.Fatal(err)
	}
	img, err := data.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.StoreDataset("tiny", img); err != nil {
		t.Fatal(err)
	}

	opt := tinyOptions()
	opt.DynamicSizing = false
	opt.SubsetBias = false
	opt.SubsetFrac = 0.25
	opt.Device = dev
	opt.DatasetName = "tiny"

	if _, err := Run(tr, te, cfg, opt); err != nil {
		t.Fatal(err)
	}

	p2p := dev.Acct.Bytes("p2p.read")
	sent := dev.Acct.Bytes("gpu.send")
	fb := dev.Acct.Bytes("gpu.feedback")
	rec := spec.BytesPerImage
	wantP2P := int64(cfg.Epochs) * int64(tr.Len()) * rec
	if p2p != wantP2P {
		t.Errorf("p2p.read = %d bytes, want %d (full candidate scan per epoch)", p2p, wantP2P)
	}
	wantSent := int64(cfg.Epochs) * int64(float64(tr.Len())*0.25) * rec
	if sent != wantSent {
		t.Errorf("gpu.send = %d bytes, want %d (subset per epoch)", sent, wantSent)
	}
	if fb == 0 {
		t.Error("no feedback bytes accounted")
	}
	// The §4.4 claim in miniature: host-interconnect traffic (subset +
	// feedback) is a fraction of the near-storage scan traffic.
	if sent+fb >= p2p {
		t.Errorf("host traffic (%d) not below near-storage traffic (%d)", sent+fb, p2p)
	}
	if dev.Clock.Now() <= 0 {
		t.Error("device clock did not advance")
	}
}

func TestDeviceWithoutNameFails(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	dev, _ := smartssd.New()
	opt := tinyOptions()
	opt.Device = dev
	if _, err := Run(tr, te, tinyCfg(), opt); err == nil {
		t.Fatal("expected error for device without dataset name")
	}
}

func TestOptionValidation(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	cases := []func(*Options){
		func(o *Options) { o.SubsetFrac = 0 },
		func(o *Options) { o.SubsetFrac = 1.5 },
		func(o *Options) { o.BiasWindow = 0 },
		func(o *Options) { o.PartitionM = 0 },
		func(o *Options) { o.ShrinkFactor = 1.2 },
		func(o *Options) { o.MinSubsetFrac = 0.9 }, // above initial 0.4
		func(o *Options) { o.Selector = "bogus" },
		// NaN fails every comparison, so each range check must be
		// written to reject it rather than to accept it.
		func(o *Options) { o.SubsetFrac = math.NaN() },
		func(o *Options) { o.ShrinkFactor = math.NaN() },
		func(o *Options) { o.MinSubsetFrac = math.NaN() },
	}
	for i, mutate := range cases {
		opt := tinyOptions()
		mutate(&opt)
		if _, err := Run(tr, te, cfg, opt); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestHugeBiasWindowRuns: a loss-history window longer than the run
// never fills, so any such window behaves like Epochs+1, and a window
// of 1<<40 must not size the ring by the option.
func TestHugeBiasWindowRuns(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	cfg.Epochs = 6
	var ref *Report
	for _, window := range []int{cfg.Epochs + 1, 100, 1 << 40} {
		opt := tinyOptions()
		opt.BiasWindow = window
		opt.BiasEvery = 2
		rep, err := Run(tr, te, cfg, opt)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if ref == nil {
			ref = rep
			continue
		}
		if !slices.Equal(rep.Metrics.EpochLoss, ref.Metrics.EpochLoss) ||
			!slices.Equal(rep.Metrics.SubsetSizes, ref.Metrics.SubsetSizes) ||
			!slices.Equal(rep.EpochSubsetFrac, ref.EpochSubsetFrac) {
			t.Errorf("window %d: series differ from window %d", window, cfg.Epochs+1)
		}
	}
}

// TestRunRejectsInvalidTrainerConfig: a bad training recipe is an
// error from Run, not a panic out of trainer.New.
func TestRunRejectsInvalidTrainerConfig(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	for _, mutate := range []func(*trainer.Config){
		func(c *trainer.Config) { c.Epochs = 0 },
		func(c *trainer.Config) { c.BatchSize = -1 },
	} {
		cfg := tinyCfg()
		mutate(&cfg)
		if _, err := Run(tr, te, cfg, tinyOptions()); err == nil {
			t.Errorf("config %+v: expected an error", cfg)
		}
	}
}

func TestReportInvariants(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	rep, err := Run(tr, te, cfg, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EpochSubsetFrac) != cfg.Epochs || len(rep.Metrics.EpochAcc) != cfg.Epochs {
		t.Fatal("per-epoch series length mismatch")
	}
	for e, f := range rep.EpochSubsetFrac {
		if f <= 0 || f > 1 {
			t.Fatalf("epoch %d subset fraction %v out of (0,1]", e, f)
		}
	}
	if rep.FinalSubsetFrac != rep.EpochSubsetFrac[cfg.Epochs-1] {
		t.Fatal("final subset fraction disagrees with last epoch")
	}
}

func TestLossHistory(t *testing.T) {
	h := newLossHistory(3, 2)
	if _, ok := h.mean(0); ok {
		t.Fatal("empty history should have no mean")
	}
	h.record([]int{0, 1}, []float32{1.0, 0.02})
	if h.learned(0, 0.1) || h.learned(1, 0.1) {
		t.Fatal("incomplete window must never mark a sample learned")
	}
	h.record([]int{0, 1}, []float32{0.5, 0.04})
	if m, _ := h.mean(0); m != 0.75 {
		t.Fatalf("mean = %v, want 0.75", m)
	}
	if h.learned(0, 0.1) {
		t.Fatal("high-loss sample marked learned")
	}
	if !h.learned(1, 0.1) {
		t.Fatal("low-loss sample with full window not marked learned")
	}
	// Ring overwrite: two more high losses displace sample 1's history.
	h.record([]int{1}, []float32{2})
	h.record([]int{1}, []float32{2})
	if h.learned(1, 0.1) {
		t.Fatal("stale low losses still marking sample learned after ring overwrite")
	}
}
