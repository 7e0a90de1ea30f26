package bench

import (
	"fmt"

	"nessa/internal/core"
	"nessa/internal/data"
	"nessa/internal/trainer"
)

// DatasetRun bundles the training runs (all data, NeSSA, and the two
// prior-work baselines) that Table 2, Fig 5, and §4.3 consume.
type DatasetRun struct {
	Spec  data.Spec
	Full  *trainer.Metrics
	NeSSA *core.Report
	CRAIG *core.Report // stale-selection baseline at a fixed 30 % subset
	KC    *core.Report // k-Centers baseline at a fixed 30 % subset
}

// scaleSpec optionally shrinks a dataset for quick runs (tests and Go
// benchmarks) while keeping its geometry.
func scaleSpec(spec data.Spec, quick bool) data.Spec {
	if !quick {
		return spec
	}
	spec.SimTrain /= 4
	spec.SimTest /= 4
	// Many-class datasets need a per-class sample floor to remain
	// learnable at the reduced scale.
	if spec.SimTrain < spec.Classes*15 {
		spec.SimTrain = spec.Classes * 15
	}
	if spec.SimTest < spec.Classes*3 {
		spec.SimTest = spec.Classes * 3
	}
	return spec
}

func runConfig(quick bool) trainer.Config {
	cfg := trainer.Default()
	if quick {
		cfg.Epochs = 20
	}
	return cfg
}

func runOptions(quick bool) core.Options {
	opt := core.DefaultOptions()
	if quick {
		opt.BiasEvery = 7
		opt.BiasWindow = 3
		opt.PartitionM = 8
		opt.ShrinkPatience = 2
		opt.LossDecayRate = 0.03
	}
	return opt
}

// AccuracyRun trains one dataset four ways: full data, NeSSA, and the
// CRAIG and k-Centers baselines (the latter two at the fixed 30 %
// subset of Table 3's middle row).
func AccuracyRun(spec data.Spec, quick bool) (DatasetRun, error) {
	spec = scaleSpec(spec, quick)
	train, test := data.Generate(spec)
	cfg := runConfig(quick)
	_, full := trainer.TrainFull(train, test, cfg)
	rep, err := core.Run(train, test, cfg, runOptions(quick))
	if err != nil {
		return DatasetRun{}, fmt.Errorf("bench: %s: %w", spec.Name, err)
	}
	craig, err := core.Run(train, test, cfg, baselineOptions(core.SelectorFacility, quick))
	if err != nil {
		return DatasetRun{}, fmt.Errorf("bench: %s craig: %w", spec.Name, err)
	}
	kc, err := core.Run(train, test, cfg, baselineOptions(core.SelectorKCenters, quick))
	if err != nil {
		return DatasetRun{}, fmt.Errorf("bench: %s kcenters: %w", spec.Name, err)
	}
	return DatasetRun{Spec: spec, Full: full, NeSSA: rep, CRAIG: craig, KC: kc}, nil
}

// baselineOptions configures the prior-work baselines: fixed 30 %
// subsets, no biasing/partitioning/dynamic sizing, selection refreshed
// only every 5 epochs (host staging cost), no quantized feedback loop.
func baselineOptions(sel core.Selector, quick bool) core.Options {
	opt := runOptions(quick)
	opt.Selector = sel
	opt.SubsetFrac = 0.30
	opt.DynamicSizing = false
	opt.SubsetBias = false
	opt.Partition = false
	opt.QuantFeedback = false
	opt.SelectEvery = 5
	return opt
}

// AccuracyRuns trains every Table 1 dataset both ways. With quick=false
// this is the full Table 2 reproduction (roughly a minute of CPU).
func AccuracyRuns(quick bool) ([]DatasetRun, error) {
	var runs []DatasetRun
	for _, spec := range data.Registry() {
		r, err := AccuracyRun(spec, quick)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// Table2 renders the accuracy-and-subset-ratio comparison (paper
// Table 2) from completed runs.
func Table2(runs []DatasetRun) *Table {
	t := &Table{
		ID:     "table2",
		Title:  "Accuracy and data ratio: NeSSA vs training on the full dataset",
		Note:   "measured on the synthetic dataset proxies (DESIGN.md §1); Subset % is the final epoch's fraction",
		Header: []string{"Dataset", "All Data (%)", "NeSSA (%)", "Subset (%)", "Avg subset (%)"},
	}
	for _, r := range runs {
		t.AddRow(r.Spec.Name,
			fmt.Sprintf("%.2f", r.Full.FinalAcc*100),
			fmt.Sprintf("%.2f", r.NeSSA.Metrics.FinalAcc*100),
			fmt.Sprintf("%.0f", r.NeSSA.FinalSubsetFrac*100),
			fmt.Sprintf("%.0f", r.NeSSA.AvgSubsetFrac*100))
	}
	return t
}

// Figure5 renders convergence curves (paper Fig 5): test accuracy over
// the training process for NeSSA (solid in the paper) vs the full
// dataset (dotted), sampled every stride epochs.
func Figure5(runs []DatasetRun, stride int) *Table {
	if stride < 1 {
		stride = 1
	}
	t := &Table{
		ID:    "figure5",
		Title: "Accuracy over the training process: NeSSA vs full dataset",
		Note:  "columns are <dataset>/nessa and <dataset>/full test accuracy (%)",
	}
	t.Header = []string{"Epoch"}
	for _, r := range runs {
		t.Header = append(t.Header, r.Spec.Name+"/nessa", r.Spec.Name+"/full")
	}
	epochs := 0
	for _, r := range runs {
		if len(r.Full.EpochAcc) > epochs {
			epochs = len(r.Full.EpochAcc)
		}
	}
	for e := 0; e < epochs; e += stride {
		row := []string{fmt.Sprintf("%d", e+1)}
		for _, r := range runs {
			row = append(row, accAt(r.NeSSA.Metrics.EpochAcc, e), accAt(r.Full.EpochAcc, e))
		}
		t.AddRow(row...)
	}
	return t
}

func accAt(series []float64, e int) string {
	if e >= len(series) {
		return ""
	}
	return fmt.Sprintf("%.1f", series[e]*100)
}
