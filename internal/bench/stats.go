package bench

import (
	"fmt"
	"math"

	"nessa/internal/core"
	"nessa/internal/data"
	"nessa/internal/trainer"
)

// Stat is a mean ± standard deviation over repeated runs.
type Stat struct {
	Mean, Std float64
	N         int
}

// NewStat computes sample statistics (σ uses n−1).
func NewStat(xs []float64) Stat {
	s := Stat{N: len(xs)}
	if s.N == 0 {
		return s
	}
	for _, x := range xs {
		s.Mean += x
	}
	// A division by a constant power of two is a product to gc, which
	// it may fuse into the subtract below; the conversion forbids it.
	s.Mean = float64(s.Mean / float64(s.N))
	if s.N < 2 {
		return s
	}
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += float64(d * d)
	}
	s.Std = math.Sqrt(ss / float64(s.N-1))
	return s
}

// String renders "mean ± std" as percentages.
func (s Stat) String() string {
	return fmt.Sprintf("%.2f ± %.2f", s.Mean*100, s.Std*100)
}

// SeedVariance repeats the full-data and NeSSA runs on one dataset
// across seeds and reports accuracy mean ± std — the error bars behind
// the single-seed Table 2 cells. The dataset itself stays fixed (its
// generator seed identifies it); only training/selection randomness
// varies.
func SeedVariance(spec data.Spec, quick bool, seeds []uint64) (*Table, error) {
	spec = scaleSpec(spec, quick)
	train, test := data.Generate(spec)

	var fullAcc, nessaAcc, subset []float64
	for _, seed := range seeds {
		cfg := runConfig(quick)
		cfg.Seed = seed
		_, full := trainer.TrainFull(train, test, cfg)
		fullAcc = append(fullAcc, full.FinalAcc)

		opt := runOptions(quick)
		opt.Seed = seed
		rep, err := core.Run(train, test, cfg, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: seed %d: %w", seed, err)
		}
		nessaAcc = append(nessaAcc, rep.Metrics.FinalAcc)
		subset = append(subset, rep.FinalSubsetFrac)
	}
	t := &Table{
		ID:     "seed-variance",
		Title:  fmt.Sprintf("Accuracy variance across %d seeds — %s", len(seeds), spec.Name),
		Note:   "dataset fixed; training and selection randomness varies",
		Header: []string{"Quantity", "Mean ± Std (%)", "Runs"},
	}
	t.AddRow("All data", NewStat(fullAcc).String(), fmt.Sprintf("%d", len(fullAcc)))
	t.AddRow("NeSSA", NewStat(nessaAcc).String(), fmt.Sprintf("%d", len(nessaAcc)))
	t.AddRow("Final subset", NewStat(subset).String(), fmt.Sprintf("%d", len(subset)))
	return t, nil
}
