package bench

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"nessa/internal/parallel"
	"nessa/internal/selection"
	"nessa/internal/tensor"
)

// SelectionBenchSpec fixes the synthetic workload of the parallel-
// selection benchmark: a CIFAR-10-shaped epoch selection step (10
// classes, per-class facility location over gradient-sized embeddings)
// plus the two kernels underneath it (a full gain scan and a selection-
// model GEMM).
type SelectionBenchSpec struct {
	Classes  int `json:"classes"`
	PerClass int `json:"perClass"`
	Dim      int `json:"dim"`
	K        int `json:"k"`

	GainN   int `json:"gainN"`   // candidates in the gain-scan kernel
	GainDim int `json:"gainDim"` // embedding dim of the gain-scan kernel

	// GEMM shape (n×k)·(k×m).
	MatN int `json:"matN"`
	MatK int `json:"matK"`
	MatM int `json:"matM"`
}

// DefaultSelectionBenchSpec sizes the workload so one measurement runs
// in roughly a second per worker setting on a laptop core.
func DefaultSelectionBenchSpec() SelectionBenchSpec {
	return SelectionBenchSpec{
		Classes: 10, PerClass: 400, Dim: 32, K: 400,
		GainN: 8192, GainDim: 64,
		MatN: 512, MatK: 256, MatM: 256,
	}
}

// SelectionBenchRun is one worker setting's measurement.
type SelectionBenchRun struct {
	Workers    int     `json:"workers"`
	PerClassMS float64 `json:"perClassMS"` // full CRAIG epoch selection step
	GainScanMS float64 `json:"gainScanMS"` // 100 facility gain scans
	MatMulMS   float64 `json:"matMulMS"`   // 20 selection-model GEMMs
}

// SelectionBenchResult is the JSON artifact written to
// results/BENCH_selection.json so the speed trajectory of the
// selection engine is tracked from PR to PR.
type SelectionBenchResult struct {
	host

	Spec SelectionBenchSpec  `json:"spec"`
	Runs []SelectionBenchRun `json:"runs"`

	// Speedups compare workers=1 against workers=max. They are null
	// (and SpeedupWarning set) when the process has fewer than 2
	// effective CPUs: a sweep time-sliced onto one core cannot measure
	// scaling, and writing a fabricated 1.0 would poison the PR-to-PR
	// trend (same convention as BENCH_training.json).
	SpeedupPerClass  *float64 `json:"speedupPerClass"`
	SpeedupGainScan  *float64 `json:"speedupGainScan"`
	SpeedupMatMul    *float64 `json:"speedupMatMul"`
	SpeedupWarning   string   `json:"speedupWarning,omitempty"`
	IdenticalSubsets bool     `json:"identicalSubsets"` // workers=1 vs max select the same set
}

// RunSelectionBench measures the parallel selection engine at 1 worker
// and at every available core, verifying along the way that both
// settings select the identical subset (the determinism contract of
// internal/parallel).
func RunSelectionBench(spec SelectionBenchSpec) (*SelectionBenchResult, []Gate, error) {
	r := tensor.NewRNG(12345)
	n := spec.Classes * spec.PerClass
	emb := tensor.NewMatrix(n, spec.Dim)
	emb.FillNormal(r, 1)
	classes := make([][]int, spec.Classes)
	for i := 0; i < n; i++ {
		classes[i%spec.Classes] = append(classes[i%spec.Classes], i)
	}

	gainEmb := tensor.NewMatrix(spec.GainN, spec.GainDim)
	gainEmb.FillNormal(r, 1)
	gainCand := make([]int, spec.GainN)
	for i := range gainCand {
		gainCand[i] = i
	}

	a := tensor.NewMatrix(spec.MatN, spec.MatK)
	bm := tensor.NewMatrix(spec.MatK, spec.MatM)
	dst := tensor.NewMatrix(spec.MatN, spec.MatM)
	a.FillNormal(r, 1)
	bm.FillNormal(r, 1)

	perClass := func() (selection.Result, error) {
		return selection.PerClassWith(emb, classes, spec.K, func(ci int) selection.Maximizer {
			return selection.StochasticMaximizer(0.1, selection.ClassStream(7, ci))
		})
	}

	res := &SelectionBenchResult{host: currentHost(), Spec: spec, IdenticalSubsets: true}
	workerSettings := []int{1, runtime.NumCPU()}
	if res.CPUs == 1 {
		workerSettings = workerSettings[:1]
	}
	defer parallel.SetDefaultWorkers(0)

	var baseline []int
	for _, w := range workerSettings {
		parallel.SetDefaultWorkers(w)

		t0 := time.Now()
		sel, err := perClass()
		if err != nil {
			return nil, nil, fmt.Errorf("bench: per-class selection: %w", err)
		}
		perClassMS := float64(time.Since(t0).Microseconds()) / 1e3

		if baseline == nil {
			baseline = sel.Selected
		} else if !slices.Equal(baseline, sel.Selected) {
			res.IdenticalSubsets = false
		}

		// The gain-scan proxy: a facility objective over 32 medoids is
		// 32 chunked candidate scans, the same loop gain/absorb run.
		t0 = time.Now()
		for i := 0; i < 20; i++ {
			selection.Objective(gainEmb, gainCand, gainCand[:32])
		}
		gainMS := float64(time.Since(t0).Microseconds()) / 1e3

		t0 = time.Now()
		for i := 0; i < 20; i++ {
			tensor.MatMul(dst, a, bm)
		}
		matMS := float64(time.Since(t0).Microseconds()) / 1e3

		res.Runs = append(res.Runs, SelectionBenchRun{
			Workers:    w,
			PerClassMS: perClassMS,
			GainScanMS: gainMS,
			MatMulMS:   matMS,
		})
	}

	if res.EffectiveCPUs < 2 {
		res.SpeedupWarning = fmt.Sprintf(
			"effective CPUs = %d (< 2): the worker sweep ran time-sliced on one core, so selection speedup is not measurable; speedups withheld",
			res.EffectiveCPUs)
	} else {
		first, last := res.Runs[0], res.Runs[len(res.Runs)-1]
		pc := safeRatio(first.PerClassMS, last.PerClassMS)
		gs := safeRatio(first.GainScanMS, last.GainScanMS)
		mm := safeRatio(first.MatMulMS, last.MatMulMS)
		res.SpeedupPerClass = &pc
		res.SpeedupGainScan = &gs
		res.SpeedupMatMul = &mm
	}
	return res, []Gate{{Name: "identical subsets at workers=1 and workers=all", OK: res.IdenticalSubsets}}, nil
}

// selectionBenchTable renders the measurement as a bench artifact.
func selectionBenchTable(res *SelectionBenchResult) *Table {
	t := &Table{
		ID:    "bench-selection",
		Title: "Parallel selection engine: per-class CRAIG step, gain scan, GEMM",
		Note: fmt.Sprintf("synthetic workload (%d classes × %d cand, dim %d, k=%d) on %d CPUs; identical subsets across worker counts: %v",
			res.Spec.Classes, res.Spec.PerClass, res.Spec.Dim, res.Spec.K, res.CPUs, res.IdenticalSubsets),
		Header: []string{"Workers", "PerClass (ms)", "GainScan (ms)", "MatMul (ms)"},
	}
	for _, run := range res.Runs {
		t.AddRow(fmt.Sprintf("%d", run.Workers),
			fmt.Sprintf("%.1f", run.PerClassMS),
			fmt.Sprintf("%.1f", run.GainScanMS),
			fmt.Sprintf("%.1f", run.MatMulMS))
	}
	t.AddRow("speedup",
		fmtSpeedup(res.SpeedupPerClass),
		fmtSpeedup(res.SpeedupGainScan),
		fmtSpeedup(res.SpeedupMatMul))
	return t
}

// fmtSpeedup renders a possibly-withheld speedup measurement.
func fmtSpeedup(s *float64) string {
	if s == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", *s)
}
