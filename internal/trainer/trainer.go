// Package trainer runs real optimization: full-dataset and
// subset-based training of the MLP proxy models with the paper's SGD
// recipe (§4.1), per-sample loss extraction for the feedback loop, and
// convergence recording for the accuracy experiments (Tables 2–3,
// Fig 5).
package trainer

import (
	"fmt"
	"sync/atomic"

	"nessa/internal/data"
	"nessa/internal/nn"
	"nessa/internal/parallel"
	"nessa/internal/tensor"
)

// Config are the training hyperparameters. Zero values fall back to
// the paper's recipe via Default.
type Config struct {
	Epochs    int
	BatchSize int
	Hidden    []int // hidden layer widths of the proxy model
	SGD       nn.SGDConfig
	Schedule  nn.StepSchedule
	Seed      uint64
}

// Default returns the §4.1 recipe scaled to the simulation: the paper
// trains 200 epochs with batch 128; the proxy models converge in 60.
func Default() Config {
	return Config{
		Epochs:    60,
		BatchSize: 128,
		Hidden:    []int{64},
		SGD:       nn.PaperSGD(),
		Schedule:  nn.PaperSchedule(),
		Seed:      1,
	}
}

// Trainer owns a model mid-training. It exposes epoch-level steps so
// the NeSSA controller can interleave selection with training.
type Trainer struct {
	Model *nn.MLP
	Opt   *nn.SGD
	Cfg   Config

	grads   *nn.Grads
	rng     *tensor.RNG
	scratch epochScratch
}

// epochScratch holds the per-batch working buffers of TrainRows,
// hoisted out of the batch loop so a steady-state epoch allocates
// nothing: the shuffled permutation, the batch's rows of x, the
// gathered batch (inputs, labels, weights), the logit gradients, and
// the per-sample losses.
// Buffers are sized for the full batch and re-sliced for the short
// tail batch, keeping their capacity across epochs.
//
//nessa:arena per-epoch training scratch, overwritten every batch
type epochScratch struct {
	perm     []int
	brows    []int
	bx       *tensor.Matrix
	blabels  []int
	bweights []float32
	dLogits  *tensor.Matrix
	losses   []float32
}

// Validate reports whether cfg can drive a Trainer. Callers that take
// a Config from outside the program check it before New, which panics
// on an invalid one.
func (cfg Config) Validate() error {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return fmt.Errorf("trainer: invalid config %+v", cfg)
	}
	return nil
}

// New builds a model and optimizer for the dataset's geometry.
func New(spec data.Spec, cfg Config) *Trainer {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	rng := tensor.NewRNG(cfg.Seed)
	m := nn.NewMLP(rng, spec.FeatureDim, cfg.Hidden, spec.Classes)
	return &Trainer{
		Model: m,
		Opt:   nn.NewSGD(m, cfg.SGD),
		Cfg:   cfg,
		grads: nn.NewGrads(m),
		rng:   rng,
	}
}

// SetEpoch applies the LR schedule for the given epoch.
func (t *Trainer) SetEpoch(epoch int) {
	t.Opt.SetLR(t.Cfg.Schedule.LRAt(epoch, t.Cfg.Epochs))
}

// Snapshot captures the trainer's complete mutable state — model
// weights, optimizer velocities + learning rate, and the RNG cursor
// that drives epoch shuffles — as the two nn serialization blobs plus
// the raw cursor. Restore on the same (spec, cfg) resumes training
// bit-identically: the next TrainEpoch shuffles, batches, and steps
// exactly as the snapshotted trainer would have.
func (t *Trainer) Snapshot() (model, opt []byte, rngState uint64) {
	return nn.MarshalModel(t.Model), nn.MarshalSGD(t.Opt), t.rng.State()
}

// Restore rebuilds a mid-run trainer from a Snapshot. spec and cfg
// must match the snapshotted run's — the architecture is built from
// them and the blobs only fill it; any other shape is an error.
func Restore(spec data.Spec, cfg Config, model, opt []byte, rngState uint64) (*Trainer, error) {
	t := New(spec, cfg)
	if err := nn.UnmarshalModelInto(t.Model, model); err != nil {
		return nil, fmt.Errorf("trainer: restoring model: %w", err)
	}
	if err := nn.UnmarshalSGDInto(t.Opt, opt); err != nil {
		return nil, fmt.Errorf("trainer: restoring optimizer: %w", err)
	}
	t.rng.SetState(rngState)
	return t, nil
}

// TrainEpoch runs one epoch of weighted mini-batch SGD over the given
// samples (rows of x with labels and per-sample weights; weights may be
// nil for uniform). Returns the weighted mean training loss.
//
//nessa:hotpath
func (t *Trainer) TrainEpoch(x *tensor.Matrix, labels []int, weights []float32) float64 {
	return t.TrainRows(x, labels, nil, weights)
}

// TrainRows runs one epoch of weighted mini-batch SGD over a row list
// of x: sample i is row rows[i] with label labels[rows[i]] and weight
// weights[i] (weights may be nil for uniform). A nil rows trains on
// every row of x. The batch is gathered straight from x, so a subset
// trains without being copied out first; the shuffle draws the same
// RNG stream as a copy of those rows would, so the trajectory is the
// one TrainEpoch takes on the copy, bit for bit. Returns the weighted
// mean training loss.
//
//nessa:hotpath
func (t *Trainer) TrainRows(x *tensor.Matrix, labels, rows []int, weights []float32) float64 {
	n := x.Rows
	if rows != nil {
		n = len(rows)
	}
	if n == 0 {
		return 0
	}
	s := &t.scratch
	// Identity fill + Shuffle consumes the same RNG stream as
	// rng.Perm, so reusing the buffer leaves trajectories unchanged.
	if cap(s.perm) < n {
		s.perm = make([]int, n)
	}
	perm := s.perm[:n]
	for i := range perm {
		perm[i] = i
	}
	t.rng.Shuffle(perm)

	maxBn := t.Cfg.BatchSize
	if maxBn > n {
		maxBn = n
	}
	if cap(s.blabels) < maxBn {
		s.brows = make([]int, maxBn)
		s.blabels = make([]int, maxBn)
		s.bweights = make([]float32, maxBn)
		s.losses = make([]float32, maxBn)
	}
	var lossSum, wSum float64

	for start := 0; start < n; start += t.Cfg.BatchSize {
		end := start + t.Cfg.BatchSize
		if end > n {
			end = n
		}
		bn := end - start
		// A short tail batch re-slices the same buffers to bn rows.
		// The loss gradient is normalized by the within-batch weight
		// sum (SoftmaxCE), so the final partial batch contributes its
		// own weighted mean gradient exactly as the paper's recipe
		// prescribes — batch size never skews sample weighting.
		idx := perm[start:end]
		brows := idx
		if rows != nil {
			brows = s.brows[:bn]
			for i, p := range idx {
				brows[i] = rows[p]
			}
		}
		s.bx = tensor.EnsureShape(s.bx, bn, x.Cols)
		tensor.GatherRows(s.bx, x, brows)
		blabels := s.blabels[:bn]
		var bweights []float32
		if weights != nil {
			bweights = s.bweights[:bn]
		}
		for i, r := range brows {
			blabels[i] = labels[r]
		}
		if weights != nil {
			for i, p := range idx {
				bweights[i] = weights[p]
			}
		}
		logits := t.Model.Forward(s.bx)
		s.dLogits = tensor.EnsureShape(s.dLogits, bn, logits.Cols)
		losses := nn.SoftmaxCEInto(s.losses[:bn], nil, logits, blabels, bweights, s.dLogits)
		for i, l := range losses {
			w := 1.0
			if bweights != nil {
				w = float64(bweights[i])
			}
			lossSum += float64(float64(l) * w)
			wSum += w
		}
		t.grads.Zero()
		t.Model.Backward(t.grads, s.dLogits)
		t.Opt.Step(t.Model, t.grads)
	}
	if wSum == 0 {
		return 0
	}
	return lossSum / wSum
}

// Evaluate reports test accuracy of the current model on ds.
func (t *Trainer) Evaluate(ds *data.Dataset) float64 {
	return EvaluateModel(t.Model, ds)
}

// evalScratch bundles the per-worker buffers of a chunked inference
// pass: a row-view into the dataset and the forward activations. The
// buffers live in a parallel.WorkerLocal arena keyed by the pool's
// worker IDs — unlike the sync.Pool they replaced, the slots are never
// drained by the garbage collector, so a warm worker evaluates with zero
// allocations forever.
//
//nessa:arena per-worker eval scratch slot, owned by one worker ID for the duration of a chunk
type evalScratch struct {
	view tensor.Matrix
	fwd  nn.FwdScratch
}

var evalArena = parallel.NewWorkerLocal[evalScratch](nil)

// viewRows points sc.view at rows [lo, hi) of x without copying.
//
//nessa:scratch-ok the view aliases the caller-owned dataset and is consumed before the chunk returns
func (sc *evalScratch) viewRows(x *tensor.Matrix, lo, hi int) *tensor.Matrix {
	sc.view.Rows = hi - lo
	sc.view.Cols = x.Cols
	sc.view.Data = x.Data[lo*x.Cols : hi*x.Cols]
	return &sc.view
}

// evalJob is a recycled dispatch descriptor for the chunked inference
// pass, mirroring the tensor layer's gemmTask: the operands of one pass
// plus the chunk body pre-bound at construction, so EvaluateModel
// allocates no closure per call.
type evalJob struct {
	m      *nn.MLP
	x      *tensor.Matrix
	labels []int
	hits   atomic.Int64

	run func(w, c, lo, hi int) // bound once to (*evalJob).accuracyChunk
}

var evalJobs parallel.FreeList[evalJob]

// accuracyChunk counts correct predictions over rows [lo,hi) through
// worker w's scratch slot. The count is folded with an atomic integer
// add — exact, so the total is independent of chunk completion order.
//
//nessa:hotpath
func (j *evalJob) accuracyChunk(w, c, lo, hi int) {
	sc := evalArena.Get(w)
	logits := j.m.ForwardInto(&sc.fwd, sc.viewRows(j.x, lo, hi))
	cnt := 0
	for i := lo; i < hi; i++ {
		if tensor.Argmax(logits.Row(i-lo)) == j.labels[i] {
			cnt++
		}
	}
	j.hits.Add(int64(cnt))
}

// EvaluateModel reports the accuracy of any model on ds. The dataset is
// processed in fixed-size chunks on the shared worker pool — each chunk
// is an independent forward pass through its worker's arena slot, so
// memory stays bounded by workers × chunk size rather than the dataset
// size, and every logit row equals the full-pass value bit for bit
// (each row depends only on its own input row). Steady-state calls
// allocate nothing.
func EvaluateModel(m *nn.MLP, ds *data.Dataset) float64 {
	n := ds.Len()
	if n == 0 {
		return 0
	}
	j := evalJobs.Get()
	if j == nil {
		j = &evalJob{}
		j.run = j.accuracyChunk
	}
	j.m, j.x, j.labels = m, ds.X, ds.Labels
	j.hits.Store(0)
	parallel.Default().ForChunks(n, j.run)
	correct := j.hits.Load()
	j.m, j.x, j.labels = nil, nil, nil
	evalJobs.Put(j)
	return float64(correct) / float64(n)
}

// Metrics records a training run for the convergence figures.
type Metrics struct {
	EpochAcc    []float64 // test accuracy after each epoch
	EpochLoss   []float64 // mean training loss per epoch
	SubsetSizes []int     // samples trained on per epoch
	FinalAcc    float64
}

// SamplesSeen reports the total sample-visits of the run — the
// gradient-computation cost the paper's |V|/|S| argument reduces.
func (m *Metrics) SamplesSeen() int {
	total := 0
	for _, s := range m.SubsetSizes {
		total += s
	}
	return total
}

// BestAcc reports the best test accuracy across epochs.
func (m *Metrics) BestAcc() float64 {
	best := 0.0
	for _, a := range m.EpochAcc {
		if a > best {
			best = a
		}
	}
	return best
}

// EpochsToReach reports the first epoch (1-based) whose accuracy
// reached target, or -1 if never — the time-to-accuracy measure behind
// the paper's end-to-end speed-up claims (§4.3).
func (m *Metrics) EpochsToReach(target float64) int {
	for i, a := range m.EpochAcc {
		if a >= target {
			return i + 1
		}
	}
	return -1
}

// TrainFull trains on the entire dataset for cfg.Epochs — the "All
// Data" / "Goal" column of Tables 2–3.
func TrainFull(train, test *data.Dataset, cfg Config) (*nn.MLP, *Metrics) {
	t := New(train.Spec, cfg)
	met := &Metrics{}
	for e := 0; e < cfg.Epochs; e++ {
		t.SetEpoch(e)
		loss := t.TrainEpoch(train.X, train.Labels, nil)
		met.EpochLoss = append(met.EpochLoss, loss)
		met.EpochAcc = append(met.EpochAcc, t.Evaluate(test))
		met.SubsetSizes = append(met.SubsetSizes, train.Len())
	}
	met.FinalAcc = met.EpochAcc[len(met.EpochAcc)-1]
	return t.Model, met
}
