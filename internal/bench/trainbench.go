package bench

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"nessa/internal/data"
	"nessa/internal/parallel"
	"nessa/internal/tensor"
	"nessa/internal/trainer"
)

// TrainingBenchSpec fixes the synthetic workload of the training
// hot-path benchmark: weighted mini-batch epochs over a CIFAR-10-shaped
// proxy dataset, the chunked evaluation pass, and the forward GEMM
// kernel underneath both.
type TrainingBenchSpec struct {
	Classes    int   `json:"classes"`
	Train      int   `json:"train"`
	Test       int   `json:"test"`
	FeatureDim int   `json:"featureDim"`
	Epochs     int   `json:"epochs"`
	BatchSize  int   `json:"batchSize"`
	Hidden     []int `json:"hidden"`

	// GEMM shape (n×k)·(m×k)ᵀ — the forward-pass kernel.
	MatN int `json:"matN"`
	MatK int `json:"matK"`
	MatM int `json:"matM"`
}

// DefaultTrainingBenchSpec mirrors the shapes the accuracy experiments
// train at: 4096 samples × 64 features, batch 128, one 64-wide hidden
// layer.
func DefaultTrainingBenchSpec(quick bool) TrainingBenchSpec {
	s := TrainingBenchSpec{
		Classes: 10, Train: 4096, Test: 512, FeatureDim: 64,
		Epochs: 12, BatchSize: 128, Hidden: []int{64},
		MatN: 512, MatK: 256, MatM: 256,
	}
	if quick {
		s.Train, s.Epochs = 1024, 4
	}
	return s
}

// TrainingBenchRun is one worker setting's measurement.
type TrainingBenchRun struct {
	Workers        int     `json:"workers"`
	GoMaxProcs     int     `json:"gomaxprocs"` // recorded per run: the OS-thread budget the run actually had
	NsPerEpoch     int64   `json:"nsPerEpoch"`
	MSPerEpoch     float64 `json:"msPerEpoch"`
	AllocsPerEpoch float64 `json:"allocsPerEpoch"` // runtime.MemStats Mallocs delta
	EvalMS         float64 `json:"evalMS"`         // chunked EvaluateModel pass
	GemmGFLOPS     float64 `json:"gemmGFLOPS"`     // forward-kernel throughput
}

// TrainingBenchResult is the JSON artifact written to
// results/BENCH_training.json so the speed trajectory of the training
// hot path is tracked from PR to PR.
type TrainingBenchResult struct {
	host

	Spec TrainingBenchSpec  `json:"spec"`
	Runs []TrainingBenchRun `json:"runs"` // worker sweep: 1, 2, NumCPU (deduplicated)

	// SpeedupEpoch is the workers=1 → workers=2 epoch speedup, an
	// ungated trend number (0.65–1.27× on a 2-CPU host at these
	// millisecond epochs). It is null (and SpeedupWarning set) when the
	// process has fewer than 2 effective CPUs: a sweep squeezed onto one
	// core cannot measure scaling, and writing a number would poison the
	// PR-to-PR trend. SpeedupEpochBest compares workers=1 against the
	// fastest sweep entry.
	SpeedupEpoch     *float64 `json:"speedupEpoch"`
	SpeedupEpochBest *float64 `json:"speedupEpochBest"`
	SpeedupWarning   string   `json:"speedupWarning,omitempty"`

	// IdenticalTrajectories is the bit-exact determinism contract:
	// every epoch loss, every final parameter bit, and the evaluated
	// accuracy agree across the whole worker sweep.
	IdenticalTrajectories bool `json:"identicalTrajectories"`
}

// trainingTrajectory is one worker setting's measured trajectory and
// timings.
type trainingTrajectory struct {
	losses  []float64
	bits    []uint32
	acc     float64
	elapsed time.Duration
	allocs  float64
}

// same reports whether two runs agree on every epoch loss,
// every final parameter bit and the evaluated accuracy.
func (t trainingTrajectory) same(o trainingTrajectory) bool {
	return slices.Equal(t.losses, o.losses) && slices.Equal(t.bits, o.bits) && t.acc == o.acc
}

// runTrajectory trains a fresh model for spec.Epochs at the current
// worker setting, returning the trajectory, steady-state timing
// (one warm-up epoch fills every arena and free list first), and the
// trained model for the eval-pass measurement.
func runTrajectory(ds data.Spec, cfg trainer.Config, spec TrainingBenchSpec, train *data.Dataset, weights []float32) (trainingTrajectory, *trainer.Trainer) {
	tt := trainer.New(ds, cfg)
	tt.SetEpoch(0)
	tt.TrainEpoch(train.X, train.Labels, weights)

	losses := make([]float64, spec.Epochs)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for e := 0; e < spec.Epochs; e++ {
		tt.SetEpoch(e)
		losses[e] = tt.TrainEpoch(train.X, train.Labels, weights)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)

	bits := make([]uint32, 0, tt.Model.NumParams())
	for _, l := range tt.Model.Layers {
		for _, v := range l.W.Data {
			bits = append(bits, math.Float32bits(v))
		}
		for _, v := range l.B {
			bits = append(bits, math.Float32bits(v))
		}
	}
	return trainingTrajectory{
		losses:  losses,
		bits:    bits,
		elapsed: elapsed,
		allocs:  float64(m1.Mallocs-m0.Mallocs) / float64(spec.Epochs),
	}, tt
}

// gemmThroughput times the forward kernel at the current worker
// setting and reports GFLOP/s.
func gemmThroughput(spec TrainingBenchSpec, gd, ga, gb *tensor.Matrix) float64 {
	tensor.MatMulTransB(gd, ga, gb) // warm the panel free list
	const reps = 20
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		tensor.MatMulTransB(gd, ga, gb)
	}
	sec := time.Since(t0).Seconds()
	flops := 2 * float64(spec.MatN) * float64(spec.MatK) * float64(spec.MatM) * reps
	return flops / sec / 1e9
}

// benchWorkerSweep is the measured worker ladder: serial, the gated
// 2-worker point, and every core. Deduplicated and ordered.
func benchWorkerSweep() []int {
	sweep := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		sweep = append(sweep, n)
	}
	return sweep
}

// RunTrainingBench measures the training hot path across the worker
// sweep, verifying along the way that the trajectories are
// bit-identical at every worker count.
func RunTrainingBench(spec TrainingBenchSpec) (*TrainingBenchResult, []Gate, error) {
	ds := data.Spec{
		Name: "bench", Classes: spec.Classes, Train: spec.Train,
		SimTrain: spec.Train, SimTest: spec.Test, FeatureDim: spec.FeatureDim,
		Spread: 0.15, HardFrac: 0.1, NoiseFrac: 0.02, Seed: 5,
	}
	train, test := data.Generate(ds)
	weights := make([]float32, train.Len())
	for i := range weights {
		weights[i] = 1 + float32(i%3)
	}
	cfg := trainer.Default()
	cfg.Epochs = spec.Epochs
	cfg.BatchSize = spec.BatchSize
	cfg.Hidden = spec.Hidden

	ga := tensor.NewMatrix(spec.MatN, spec.MatK)
	gb := tensor.NewMatrix(spec.MatM, spec.MatK)
	gd := tensor.NewMatrix(spec.MatN, spec.MatM)
	r := tensor.NewRNG(12345)
	ga.FillNormal(r, 1)
	gb.FillNormal(r, 1)

	res := &TrainingBenchResult{
		host:                  currentHost(),
		Spec:                  spec,
		IdenticalTrajectories: true,
	}
	defer parallel.SetDefaultWorkers(0)

	var ref trainingTrajectory // the sweep's first run
	for i, w := range benchWorkerSweep() {
		parallel.SetDefaultWorkers(w)

		tj, tt := runTrajectory(ds, cfg, spec, train, weights)
		trainer.EvaluateModel(tt.Model, test) // warm eval arenas
		t0 := time.Now()
		tj.acc = trainer.EvaluateModel(tt.Model, test)
		evalMS := float64(time.Since(t0).Microseconds()) / 1e3
		gflops := gemmThroughput(spec, gd, ga, gb)

		if i == 0 {
			ref = tj
		} else if !tj.same(ref) {
			res.IdenticalTrajectories = false
		}

		res.Runs = append(res.Runs, TrainingBenchRun{
			Workers:        w,
			GoMaxProcs:     runtime.GOMAXPROCS(0),
			NsPerEpoch:     tj.elapsed.Nanoseconds() / int64(spec.Epochs),
			MSPerEpoch:     float64(tj.elapsed.Nanoseconds()) / float64(spec.Epochs) / 1e6,
			AllocsPerEpoch: tj.allocs,
			EvalMS:         evalMS,
			GemmGFLOPS:     gflops,
		})
	}

	if res.EffectiveCPUs < 2 {
		res.SpeedupWarning = fmt.Sprintf(
			"effective CPUs = %d (< 2): the worker sweep ran time-sliced on one core, so epoch speedup is not measurable; speedupEpoch withheld",
			res.EffectiveCPUs)
	} else {
		for _, run := range res.Runs {
			if run.Workers == 2 {
				s := safeRatio(res.Runs[0].MSPerEpoch, run.MSPerEpoch)
				res.SpeedupEpoch = &s
			}
		}
		best := res.Runs[0].MSPerEpoch
		for _, run := range res.Runs {
			best = min(best, run.MSPerEpoch)
		}
		sb := safeRatio(res.Runs[0].MSPerEpoch, best)
		res.SpeedupEpochBest = &sb
	}

	return res, []Gate{{Name: "bit-exact trajectories identical across the worker sweep", OK: res.IdenticalTrajectories}}, nil
}

// trainingBenchTable renders the measurement as a bench artifact.
func trainingBenchTable(res *TrainingBenchResult) *Table {
	t := &Table{
		ID:    "bench-training",
		Title: "Training hot path: weighted SGD epoch, chunked evaluation, forward GEMM",
		Note: fmt.Sprintf("%d samples × %d features, batch %d, %d epochs on %d CPUs (GOMAXPROCS %d); bit-identical trajectories across worker counts: %v",
			res.Spec.Train, res.Spec.FeatureDim, res.Spec.BatchSize, res.Spec.Epochs, res.CPUs, res.GoMaxProcs,
			res.IdenticalTrajectories),
		Header: []string{"Workers", "Epoch (ms)", "Allocs/epoch", "Eval (ms)", "GEMM (GFLOP/s)"},
	}
	for _, run := range res.Runs {
		t.AddRow(fmt.Sprintf("%d", run.Workers),
			fmt.Sprintf("%.2f", run.MSPerEpoch),
			fmt.Sprintf("%.1f", run.AllocsPerEpoch),
			fmt.Sprintf("%.2f", run.EvalMS),
			fmt.Sprintf("%.1f", run.GemmGFLOPS))
	}
	switch {
	case res.SpeedupEpoch != nil:
		t.AddRow("speedup @2", fmt.Sprintf("%.2fx", *res.SpeedupEpoch), "", "", "")
	default:
		t.AddRow("speedup @2", "null (single-CPU host)", "", "", "")
	}
	if res.SpeedupEpochBest != nil {
		t.AddRow("speedup best", fmt.Sprintf("%.2fx", *res.SpeedupEpochBest), "", "", "")
	}
	return t
}
