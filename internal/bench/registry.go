package bench

import (
	"path/filepath"

	"nessa/internal/data"
)

// Params is nessa-bench's flag set as the artifacts see it.
type Params struct {
	Quick      bool
	Stride     int    // epoch stride of figure5's rows
	Seeds      int    // seed count of seed-variance
	ResultsDir string // where the measured artifacts write their JSON
}

// Artifact is one entry of the registry nessa-bench walks: every table,
// figure, ablation and measured benchmark the binary can regenerate.
type Artifact struct {
	ID        string
	Blurb     string // progress line for a run that takes longer than an instant
	File      string // JSON artifact the run writes under Params.ResultsDir
	OnRequest bool   // runs only when -only names it
	Run       func(Params) (*Table, []Gate, error)
}

// Artifacts returns the registry in print order. The four accuracy
// artifacts share one set of training runs, made when the first of them
// is asked for.
func Artifacts() []Artifact {
	plain := func(id string, emit func() *Table) Artifact {
		return Artifact{ID: id, Run: func(Params) (*Table, []Gate, error) { return emit(), nil, nil }}
	}

	var runs []DatasetRun
	accuracy := func(id string, emit func(Params, []DatasetRun) *Table) Artifact {
		return Artifact{ID: id, Blurb: "running accuracy experiments (full + NeSSA + baselines on all datasets)...",
			Run: func(p Params) (*Table, []Gate, error) {
				if runs == nil {
					var err error
					if runs, err = AccuracyRuns(p.Quick); err != nil {
						return nil, nil, err
					}
				}
				return emit(p, runs), nil, nil
			}}
	}

	table3 := func(quick bool) (*Table, error) {
		res, err := RunTable3([]float64{0.10, 0.30, 0.50}, quick)
		if err != nil {
			return nil, err
		}
		return Table3(res), nil
	}

	return []Artifact{
		plain("table1", Table1),
		plain("figure1", Figure1),
		plain("figure2", Figure2),
		plain("table4", Table4),
		plain("figure6", Figure6),
		plain("figure4", Figure4),
		accuracy("table2", func(_ Params, r []DatasetRun) *Table { return Table2(r) }),
		accuracy("figure5", func(p Params, r []DatasetRun) *Table { return Figure5(r, p.Stride) }),
		accuracy("section4.3", func(_ Params, r []DatasetRun) *Table { return Section43(r) }),
		accuracy("section4.4", func(_ Params, r []DatasetRun) *Table { return Section44(FinalSubsetFracs(r)) }),
		{ID: "table3", Blurb: "running table 3 ablation grid (CIFAR-10)...",
			Run: func(p Params) (*Table, []Gate, error) {
				tab, err := table3(p.Quick)
				return tab, nil, err
			}},
		{ID: "table3-starved", Blurb: "running table 3 in the sample-starved regime...",
			Run: func(Params) (*Table, []Gate, error) {
				tab, err := table3(true)
				if err != nil {
					return nil, nil, err
				}
				tab.ID = "table3-starved"
				tab.Title = "CIFAR-10 ablation in the sample-starved regime (750 samples): where selection quality matters"
				tab.Note = "reduced-scale dataset; reproduces the paper's method differentiation (see EXPERIMENTS.md)"
				return tab, nil, nil
			}},
		// Extension ablations, beyond the paper's artifacts.
		plain("ablation-eps", AblationEps),
		plain("ablation-partition", AblationPartition),
		plain("ablation-bits", AblationBits),
		plain("ablation-dse", AblationDSE),
		plain("ablation-cluster", AblationCluster),
		plain("ablation-energy", AblationEnergy),
		plain("ablation-scaleout", AblationScaleOut),
		measured("bench-selection", "measuring the parallel selection engine (workers=1 vs all cores)...", "BENCH_selection.json",
			func(bool) SelectionBenchSpec { return DefaultSelectionBenchSpec() }, RunSelectionBench, nil, selectionBenchTable),
		measured("bench-training", "measuring the training hot path (worker sweep 1/2/all cores)...", "BENCH_training.json",
			DefaultTrainingBenchSpec, RunTrainingBench, nil, trainingBenchTable),
		measured("bench-streaming", "measuring single-pass streaming selection (sequential NAND scan, on-chip state)...", "BENCH_streaming.json",
			DefaultStreamingBenchSpec, RunStreamingBench, carryStreaming, streamingBenchTable),
		measured("bench-faults", "measuring fault-tolerance overhead and chaos resilience...", "BENCH_faults.json",
			DefaultFaultBenchSpec, RunFaultBench, nil, faultBenchTable),
		measured("bench-recovery", "measuring device-loss recovery (parity overhead, degraded scans, checkpointed resume)...", "BENCH_recovery.json",
			DefaultRecoveryBenchSpec, RunRecoveryBench, carryRecovery, recoveryBenchTable),
		{ID: "seed-variance", OnRequest: true,
			Run: func(p Params) (*Table, []Gate, error) {
				spec, _ := data.Lookup("CIFAR-10")
				seeds := make([]uint64, p.Seeds)
				for i := range seeds {
					seeds[i] = uint64(i + 1)
				}
				tab, err := SeedVariance(spec, p.Quick, seeds)
				return tab, nil, err
			}},
	}
}

// measured is the registry entry of a benchmark that writes a JSON
// artifact: run the workload at its default spec, carry what the
// replaced file recorded (for the emitters that keep a before/after
// pair), write, render.
func measured[S, R any](id, blurb, file string, spec func(quick bool) S, run func(S) (*R, []Gate, error), carry func(res, prev *R), table func(*R) *Table) Artifact {
	return Artifact{ID: id, Blurb: blurb, File: file, Run: func(p Params) (*Table, []Gate, error) {
		res, gates, err := run(spec(p.Quick))
		if err != nil {
			return nil, nil, err
		}
		if err := writeArtifact(filepath.Join(p.ResultsDir, file), res, carry); err != nil {
			return nil, nil, err
		}
		return table(res), gates, nil
	}}
}
