package bench

import (
	"fmt"

	"nessa/internal/core"
	"nessa/internal/data"
	"nessa/internal/trainer"
)

// Table3Variant names one column of the paper's Table 3 ablation.
type Table3Variant string

const (
	VariantVanilla  Table3Variant = "Vanilla"   // NeSSA without SB and PA
	VariantSB       Table3Variant = "SB"        // + subset biasing (§3.2.2)
	VariantPA       Table3Variant = "PA"        // + dataset partitioning (§3.2.3)
	VariantSBPA     Table3Variant = "SB+PA"     // both (full NeSSA)
	VariantCRAIG    Table3Variant = "CRAIG"     // prior work: stale CPU-side selection
	VariantKCenters Table3Variant = "K-Centers" // prior work: farthest-point
)

// Table3Variants lists the ablation columns in paper order.
func Table3Variants() []Table3Variant {
	return []Table3Variant{VariantVanilla, VariantSB, VariantPA, VariantSBPA, VariantCRAIG, VariantKCenters}
}

// variantOptions maps a Table 3 column to controller options at a
// fixed subset fraction (Table 3 pins the subset size, so dynamic
// sizing is off everywhere).
func variantOptions(v Table3Variant, frac float64, quick bool) core.Options {
	opt := runOptions(quick)
	opt.DynamicSizing = false
	opt.SubsetBias = false
	opt.Partition = false
	switch v {
	case VariantVanilla:
	case VariantSB:
		opt.SubsetBias = true
	case VariantPA:
		opt.Partition = true
	case VariantSBPA:
		opt.SubsetBias = true
		opt.Partition = true
	case VariantCRAIG:
		opt = opt.Baseline(core.SelectorFacility)
	case VariantKCenters:
		opt = opt.Baseline(core.SelectorKCenters)
	}
	opt.SubsetFrac = frac
	return opt
}

// Table3Result is the accuracy grid of the ablation.
type Table3Result struct {
	Fracs   []float64
	Acc     map[Table3Variant][]float64 // per variant, aligned with Fracs
	Goal    float64                     // full-data accuracy
	GoalMet *trainer.Metrics
	Dataset data.Spec
}

// RunTable3 trains every Table 3 cell on CIFAR-10: the four NeSSA
// ablations plus the two prior-work baselines at each subset fraction,
// and the full-data "Goal".
func RunTable3(fracs []float64, quick bool) (*Table3Result, error) {
	spec, _ := data.Lookup("CIFAR-10")
	spec = scaleSpec(spec, quick)
	train, test := data.Generate(spec)
	cfg := runConfig(quick)

	_, goal := trainer.TrainFull(train, test, cfg)
	res := &Table3Result{
		Fracs:   fracs,
		Acc:     make(map[Table3Variant][]float64),
		Goal:    goal.FinalAcc,
		GoalMet: goal,
		Dataset: spec,
	}
	for _, v := range Table3Variants() {
		for _, f := range fracs {
			rep, err := core.Run(train, test, cfg, variantOptions(v, f, quick))
			if err != nil {
				return nil, fmt.Errorf("bench: table3 %s@%.0f%%: %w", v, f*100, err)
			}
			res.Acc[v] = append(res.Acc[v], rep.Metrics.FinalAcc)
		}
	}
	return res, nil
}

// Table3 renders the ablation grid (paper Table 3).
func Table3(res *Table3Result) *Table {
	t := &Table{
		ID:     "table3",
		Title:  "CIFAR-10 accuracy: NeSSA ablations vs prior work at fixed subset sizes",
		Note:   "SB = subset biasing, PA = dataset partitioning; Goal = full dataset",
		Header: []string{"Subset (%)", "Vanilla (%)", "SB (%)", "PA (%)", "SB+PA (%)", "CRAIG (%)", "K-Centers (%)", "Goal (%)"},
	}
	for i, f := range res.Fracs {
		row := []string{fmt.Sprintf("%.0f", f*100)}
		for _, v := range Table3Variants() {
			row = append(row, fmt.Sprintf("%.2f", res.Acc[v][i]*100))
		}
		row = append(row, fmt.Sprintf("%.2f", res.Goal*100))
		t.AddRow(row...)
	}
	return t
}
