// Package core implements NeSSA itself: the SmartSSD+GPU training
// controller of paper §3. Each epoch it
//
//  1. runs the selection model (an int8-quantized snapshot of the
//     target model) over the remaining candidate pool near storage,
//  2. selects the most important subset by per-class facility-location
//     maximization over last-layer gradient embeddings (§3.1, Eq. 5),
//     optionally chunked to fit the FPGA's on-chip memory (§3.2.3),
//  3. ships only the subset to the GPU and trains the target model on
//     it with medoid-weighted SGD,
//  4. feeds the newly quantized weights and observed losses back to
//     the selection model (§3.2.1), drops learned samples from the
//     candidate pool (§3.2.2), and shrinks the subset when the loss
//     reduction rate decays (contribution 4).
//
// The controller runs real training (accuracy results are measured,
// not modelled); when a smartssd.Device is attached it also charges
// every byte the pipeline moves, so the same run yields the data-
// movement accounting of §4.4.
package core

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/nn"
	"nessa/internal/parallel"
	"nessa/internal/quant"
	"nessa/internal/selection"
	"nessa/internal/selection/streaming"
	"nessa/internal/smartssd"
	"nessa/internal/tensor"
	"nessa/internal/trainer"
)

// Selector names the subset-selection algorithm driving the loop.
type Selector string

const (
	// SelectorFacility is NeSSA's facility-location selection (and
	// CRAIG's, which differs by feedback staleness — see SelectEvery).
	SelectorFacility Selector = "facility"
	// SelectorKCenters is the Sener–Savarese k-Centers baseline.
	SelectorKCenters Selector = "kcenters"
	// SelectorRandom is the uniform random baseline.
	SelectorRandom Selector = "random"
	// SelectorTopLoss is the loss-based importance heuristic ("biggest
	// losers", §2.1's training-dynamics line of prior work).
	SelectorTopLoss Selector = "toploss"
)

// Options configures a NeSSA (or baseline) run. The zero value is not
// valid; start from DefaultOptions.
type Options struct {
	Selector   Selector
	SubsetFrac float64 // initial |S|/|V|

	// Feedback (§3.2.1). When true the selection model is the int8-
	// quantized snapshot of the target model, refreshed every
	// SelectEvery epochs. When false selection still uses the target
	// model's weights directly (an idealized, un-quantized feedback).
	QuantFeedback bool
	// SelectEvery is the number of epochs between selection-model
	// refreshes + re-selections. NeSSA's near-storage feedback loop
	// affords 1; the CPU-side CRAIG baseline re-selects every 5 epochs
	// because staging data to the host each epoch is prohibitive.
	SelectEvery int

	// Subset biasing (§3.2.2).
	SubsetBias    bool
	BiasWindow    int     // epochs of loss history considered (paper: 5)
	BiasEvery     int     // drop marked samples every this many epochs (paper: 20)
	BiasThreshold float32 // mean recent loss below which a sample is "learned"

	// Dataset partitioning (§3.2.3).
	Partition  bool
	PartitionM int // medoids selected per chunk (the paper's m)

	// Dynamic subset sizing (contribution 4).
	DynamicSizing  bool
	LossDecayRate  float64 // reduction rate below which the subset shrinks
	ShrinkFactor   float64 // multiplicative subset shrink
	MinSubsetFrac  float64
	ShrinkPatience int // consecutive slow epochs required

	Eps  float64 // stochastic-greedy ε
	Seed uint64

	// Workers caps the goroutines of the shared execution pool that
	// the selection kernels, the training-path GEMMs, and the chunked
	// evaluation/per-sample-loss passes run on — the software analogue
	// of the FPGA kernel's parallel compute units (Table 4's distance
	// lanes). 0 means runtime.NumCPU(); 1 runs fully serial. The
	// setting only changes wall-clock time: chunked deterministic
	// reductions and row-banded GEMMs make every result — selected
	// subsets and training trajectories alike — identical for any
	// worker count.
	Workers int

	// BitExact is ignored: internal/tensor has one kernel tier, and
	// every run is bit-exact (DESIGN.md §4.9). It selected a fused
	// AVX2/FMA kernel tier that no longer exists and stays only because
	// the frozen internal/bench/e2e sets it; ROADMAP item 9b deletes it.
	BitExact bool

	// Storage (§4.4). With Device or Cluster set, the selector's input
	// is the candidate records scanned from the image stored under
	// DatasetName — CRC-checked, and reconstructed from parity on a
	// cluster that lost a member — not train's rows; a record whose
	// label or feature count disagrees with train fails the run. Every
	// read, subset transfer and feedback transfer is charged to the
	// drives. Device is one drive: a batch reselection gathers exactly
	// the candidate records in one read, a streaming one scans them in
	// chunks.
	Device      *smartssd.Device
	DatasetName string

	// Fault tolerance (§4.6). Injector, when non-nil, is attached to the
	// drives and perturbs storage operations with its seeded fault
	// schedule; it requires Device or Cluster. Retry bounds the recovery
	// loop around each Device scan (zero value means
	// smartssd.DefaultRetryPolicy); a Cluster scan retries each stripe
	// under the default policy. When a Device scan still fails with a
	// degradable fault after retries, the epoch falls back to weighted-
	// random selection over a host-path read of the chosen records so
	// the job completes; permanent faults (addressing, capacity, missing
	// data) abort.
	Injector *faults.Injector
	Retry    smartssd.RetryPolicy

	// RawScan reads as the pre-fault-tolerance pipeline did: no scan
	// runs the per-record CRC verify, and each Device scan read is
	// issued once. Benchmark-only: it exists so bench-faults can price
	// the clean-path overhead of the recovery machinery.
	RawScan bool

	// Streaming switches the facility selector to the single-pass
	// sieve pipeline (internal/selection/streaming): the candidate scan
	// is consumed chunk by chunk and the full embedding matrix is never
	// materialized, so selection state stays within the FPGA's on-chip
	// budget regardless of dataset size. Requires SelectorFacility.
	// StreamChunk is the records per scan and embed chunk of either
	// selector (0 = 8192).
	Streaming   bool
	StreamChunk int

	// Device-loss recovery (§4.11). Cluster attaches a multi-device
	// group in place of Device: every reselection decodes the candidates
	// from one ParallelScan of DatasetName, which survives whole-device
	// loss by reconstructing lost stripes from parity when the dataset
	// was placed with smartssd.Placement.ParityShards > 0. AutoRebuild,
	// after a scan that reports degraded reads while a spare is
	// attached, rebuilds the lost shard onto the spare before the next
	// epoch and charges the wall time to Report.Recovery.RebuildTime.
	Cluster     *smartssd.Cluster
	AutoRebuild bool

	// Checkpointed sessions (§4.11). When CheckpointSink is non-nil
	// the full session state — candidate pool, current subset and
	// weights, model and optimizer tensors, both RNG cursors, loss
	// history, metrics, and the epoch counter — is captured every
	// CheckpointEvery epochs (0 means every epoch) and handed to the
	// sink. Resume, when non-nil, restores a blob produced under the
	// same configuration and continues the run bit-identically from
	// its epoch.
	CheckpointEvery int
	CheckpointSink  func(epoch int, blob []byte) error
	Resume          []byte
}

// DefaultOptions returns the full NeSSA configuration (the "SB+PA"
// column of Table 3) with the paper's constants.
func DefaultOptions() Options {
	return Options{
		Selector:       SelectorFacility,
		SubsetFrac:     0.40,
		QuantFeedback:  true,
		SelectEvery:    1,
		SubsetBias:     true,
		BiasWindow:     5,
		BiasEvery:      20,
		BiasThreshold:  0.10,
		Partition:      true,
		PartitionM:     16,
		DynamicSizing:  true,
		LossDecayRate:  0.01,
		ShrinkFactor:   0.90,
		MinSubsetFrac:  0.15,
		ShrinkPatience: 5,
		Eps:            0.1,
		Seed:           7,
		Workers:        runtime.NumCPU(),
	}
}

// Report is the outcome of a run.
type Report struct {
	Metrics trainer.Metrics

	EpochSubsetFrac []float64 // |S|/|V| per epoch
	FinalSubsetFrac float64   // Table 2's "Subset (%)"
	AvgSubsetFrac   float64
	CandidatesLeft  int // candidate-pool size after biasing
	Dropped         int // samples pruned by subset biasing

	Faults   FaultReport    // what the recovery machinery did (§4.6)
	Recovery RecoveryReport // device-loss recovery activity (§4.11)
}

// FaultReport aggregates the fault-recovery activity of a run: what the
// resilient read layer absorbed, and how many epochs fell back to
// degraded-mode selection. All zero for a fault-free run.
type FaultReport struct {
	ScanAttempts    int // storage read issues across all epochs
	Retries         int // re-issues after recoverable failures
	TransientErrors int // transient I/O errors absorbed
	CorruptDetected int // CRC-verification failures caught and re-read
	HostFallbacks   int // reads that fell from the P2P to the host path
	FallbackEpochs  int // epochs trained on weighted-random fallback subsets

	// Injected counts the faults the attached injector actually fired,
	// by class — ground truth to compare the detection counters against.
	// Nil when no injector was attached.
	Injected map[faults.Class]int64
}

// RecoveryReport aggregates the device-loss recovery activity of a
// run (§4.11): what the erasure-coded placement reconstructed, what
// the background rebuild restored, and where a resumed session picked
// up. ResumedFromEpoch is -1 for a fresh run.
type RecoveryReport struct {
	DevicesLost        int           // devices confirmed lost during the run
	DegradedReads      int           // stripes served via parity reconstruction
	ReconstructedBytes int64         // payload bytes rebuilt from survivors
	RebuildTime        time.Duration // wall time spent rebuilding onto spares
	ResumedFromEpoch   int           // checkpoint epoch the run resumed from
}

// absorb folds one resilient read's stats into the report.
func (f *FaultReport) absorb(st smartssd.ReadStats) {
	f.ScanAttempts += st.Attempts
	f.Retries += st.Retries
	f.TransientErrors += st.Transient
	f.CorruptDetected += st.Corrupt
	if st.HostFallback {
		f.HostFallbacks++
	}
}

// Run trains on (train, test) with the given training recipe and
// selection options and returns the measured report.
func Run(train, test *data.Dataset, tcfg trainer.Config, opt Options) (*Report, error) {
	if err := validateOptions(&opt); err != nil {
		return nil, err
	}
	if err := tcfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Size the shared execution pool. This is a process-wide scheduling
	// knob: results are worker-count-independent by construction, so a
	// concurrent run with a different setting only affects timing.
	parallel.SetDefaultWorkers(opt.Workers)
	s, err := newSession(train, test, tcfg, opt)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// session is the complete mutable state of a run. Everything the
// epoch loop reads or writes lives here, so a checkpoint is one
// struct walk (checkpoint.go) and resuming is a field-for-field
// restore — the basis of the bit-identical-resume guarantee.
type session struct {
	train, test *data.Dataset
	tcfg        trainer.Config
	opt         Options

	n   int
	rng *tensor.RNG // controller RNG: selection seeds and fallbacks
	tr  *trainer.Trainer
	src recordSource

	epoch      int // next epoch to execute
	cands      []int
	hist       *lossHistory
	frac       float64
	slowEpochs int
	prevLoss   float64
	dropped    int
	current    selection.Result

	rep *Report

	// The embed loop's buffers. The candidate pool only shrinks, so
	// newSession sizes them once: feats holds one chunk of decoded
	// features, emb the pool's gradient embeddings (one chunk's when
	// streaming), labels and losses one entry per candidate.
	feats   tensor.Matrix
	emb     tensor.Matrix
	embView tensor.Matrix
	labels  []int
	losses  []float32
	fwd     nn.FwdScratch

	// The selection pass's storage, sized by the first reselection and
	// reused by every later one (DESIGN.md §4.13 tabulates it): the
	// quantized and dequantized selection model, the local candidate
	// positions, the per-class lists (batch) or counts (streaming), one
	// maximizer scratch and RNG per class, the merged result, and the
	// streaming selector.
	qm       *quant.Model
	selModel *nn.MLP
	pos      []int
	classes  [][]int
	counts   []int
	scratch  []*selection.Scratch
	crng     []tensor.RNG
	picked   selection.Result
	sieve    *streaming.Selector
}

func newSession(train, test *data.Dataset, tcfg trainer.Config, opt Options) (*session, error) {
	n := train.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	src, err := newSource(&opt, train.Spec)
	if err != nil {
		return nil, err
	}
	// A sample records at most one loss per epoch, so a window longer
	// than the run never fills and marks nothing: Epochs+1 slots behave
	// the same without sizing the ring by the option.
	window := min(opt.BiasWindow, tcfg.Epochs+1)
	s := &session{
		train: train, test: test, tcfg: tcfg, opt: opt,
		n:        n,
		rng:      tensor.NewRNG(opt.Seed),
		src:      src,
		hist:     newLossHistory(n, window),
		frac:     opt.SubsetFrac,
		prevLoss: -1,
		rep:      &Report{},
	}
	s.rep.Recovery.ResumedFromEpoch = -1
	if opt.Resume != nil {
		if err := s.restore(opt.Resume); err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		s.rep.Recovery.ResumedFromEpoch = s.epoch
	} else {
		s.tr = trainer.New(train.Spec, tcfg)
		s.cands = positions(n)
	}
	pool, classes := len(s.cands), train.Spec.Classes
	chunk := s.chunk()
	s.feats = *tensor.NewMatrix(chunk, train.X.Cols)
	rows := pool
	if opt.Streaming {
		rows = chunk
	}
	s.emb = *tensor.NewMatrix(rows, classes)
	s.labels = make([]int, pool)
	s.losses = make([]float32, pool)
	s.pos = positions(pool)
	return s, nil
}

func (s *session) run() (*Report, error) {
	opt, rep := s.opt, s.rep
	for e := s.epoch; e < s.tcfg.Epochs; e++ {
		s.tr.SetEpoch(e)

		reselect := e%opt.SelectEvery == 0 || s.current.Selected == nil
		if reselect {
			selModel := s.tr.Model
			if opt.QuantFeedback {
				s.qm = quant.QuantizeModelInto(s.qm, s.tr.Model)
				s.selModel = s.qm.DequantizedInto(s.selModel)
				selModel = s.selModel
				s.src.feedback(s.qm.SizeBytes())
			}
			res, degraded, err := s.selectSubset(selModel)
			if err != nil {
				return nil, err
			}
			if degraded {
				if res, err = s.fallbackSubset(); err != nil {
					return nil, err
				}
				rep.Faults.FallbackEpochs++
				// No selection pass ran, so there are no fresh losses to
				// feed the subset-biasing history this epoch.
			} else {
				s.hist.record(s.cands, s.losses[:len(s.cands)])
				s.src.ship(len(res.Selected))
			}
			s.current = res
		}

		loss := s.tr.TrainRows(s.train.X, s.train.Labels, s.current.Selected, s.current.Weights)
		size := len(s.current.Selected)

		rep.Metrics.EpochLoss = append(rep.Metrics.EpochLoss, loss)
		rep.Metrics.EpochAcc = append(rep.Metrics.EpochAcc, s.tr.Evaluate(s.test))
		rep.Metrics.SubsetSizes = append(rep.Metrics.SubsetSizes, size)
		rep.EpochSubsetFrac = append(rep.EpochSubsetFrac, float64(size)/float64(s.n))

		// Subset biasing (§3.2.2): every BiasEvery epochs drop samples
		// whose recent losses mark them as learned.
		if opt.SubsetBias && (e+1)%opt.BiasEvery == 0 {
			kept := s.cands[:0]
			for _, c := range s.cands {
				if s.hist.learned(c, opt.BiasThreshold) {
					s.dropped++
					continue
				}
				kept = append(kept, c)
			}
			// Never bias below the current subset budget.
			minPool := int(s.frac*float64(s.n)) + 1
			if len(kept) >= minPool {
				s.cands = kept
				s.current.Selected = nil // force reselection from the pruned pool
			} else {
				s.dropped -= len(s.cands) - len(kept)
			}
		}

		// Dynamic subset sizing: shrink when the loss stops improving.
		if opt.DynamicSizing {
			if s.prevLoss > 0 {
				rate := (s.prevLoss - loss) / s.prevLoss
				if rate < opt.LossDecayRate {
					s.slowEpochs++
				} else {
					s.slowEpochs = 0
				}
				if s.slowEpochs >= opt.ShrinkPatience {
					next := s.frac * opt.ShrinkFactor
					if next < opt.MinSubsetFrac {
						next = opt.MinSubsetFrac
					}
					if next < s.frac {
						s.frac = next
						s.current.Selected = nil // reselect at the new size
					}
					s.slowEpochs = 0
				}
			}
			s.prevLoss = loss
		}

		// Checkpoint after ALL per-epoch bookkeeping, so a resumed
		// session re-enters the loop exactly where this one left it.
		if opt.CheckpointSink != nil {
			every := opt.CheckpointEvery
			if every <= 0 {
				every = 1
			}
			if (e+1)%every == 0 {
				if err := opt.CheckpointSink(e+1, s.checkpoint(e+1)); err != nil {
					return nil, fmt.Errorf("core: checkpoint sink: %w", err)
				}
			}
		}
	}

	rep.Metrics.FinalAcc = rep.Metrics.EpochAcc[len(rep.Metrics.EpochAcc)-1]
	rep.FinalSubsetFrac = rep.EpochSubsetFrac[len(rep.EpochSubsetFrac)-1]
	var sum float64
	for _, f := range rep.EpochSubsetFrac {
		sum += f
	}
	rep.AvgSubsetFrac = sum / float64(len(rep.EpochSubsetFrac))
	rep.CandidatesLeft = len(s.cands)
	rep.Dropped = s.dropped
	if opt.Injector != nil {
		rep.Faults.Injected = opt.Injector.Counts()
	}
	rep.Recovery.DevicesLost += s.src.lost()
	return rep, nil
}

// verifyRecords returns a per-record CRC verifier for scan payloads.
func verifyRecords(recordSize int64) func([]byte) error {
	return func(buf []byte) error { return data.VerifyImage(buf, recordSize) }
}

// subsetK sizes the subset: frac of the full set, clamped to [1, pool].
func subsetK(frac float64, n, pool int) int {
	return min(max(int(frac*float64(n)), 1), pool)
}

// chunk is the embed loop's chunk for the current pool: StreamChunk
// records (0 = 8192), capped at the pool.
func (s *session) chunk() int {
	chunk := s.opt.StreamChunk
	if chunk <= 0 {
		chunk = 8192
	}
	return min(chunk, len(s.cands))
}

// fallbackSubset implements degraded-mode selection (§4.6): when the
// near-storage scan is unavailable even after retries, pick a weighted-
// random subset (the unbiased n/k-weighted baseline — no fresh loss or
// gradient information exists without a scan) and fetch exactly those
// records over the resilient host path.
func (s *session) fallbackSubset() (selection.Result, error) {
	res, err := selection.Random(s.pos[:len(s.cands)], subsetK(s.frac, s.n, len(s.cands)), s.rng)
	if err != nil {
		return selection.Result{}, fmt.Errorf("core: fallback selection: %w", err)
	}
	for i, p := range res.Selected {
		res.Selected[i] = s.cands[p]
	}
	if err := s.src.fallback(res.Selected, &s.rep.Faults); err != nil {
		return selection.Result{}, err
	}
	return res, nil
}

// embedChunk is the selection pass's one embed loop body: candidates
// [lo, hi) are decoded from their records (gathered from train when at
// is nil), run through the selection model, and their losses and
// last-layer gradient embeddings land in s.losses[lo:hi] and emb.
//
//nessa:hotpath
func (s *session) embedChunk(m *nn.MLP, at func(int) []byte, lo, hi int, emb *tensor.Matrix) error {
	feats := &s.feats
	feats.Rows = hi - lo
	feats.Data = feats.Data[:feats.Rows*feats.Cols]
	labels := s.labels[lo:hi]
	if at == nil {
		tensor.GatherRows(feats, s.train.X, s.cands[lo:hi])
		for i, c := range s.cands[lo:hi] {
			labels[i] = s.train.Labels[c]
		}
	} else if err := s.decodeChunk(feats, labels, at, lo); err != nil {
		return err
	}
	logits := m.ForwardInto(&s.fwd, feats)
	nn.LossAndGradEmbeddingsInto(s.losses[lo:hi], emb, logits, labels)
	return nil
}

// decodeChunk decodes the records of candidates [lo, lo+len(labels))
// into feats and labels. The scan has already CRC-checked them; a
// record that holds the wrong feature count, or a label other than the
// dataset's for that candidate, is an error.
//
//nessa:hotpath
func (s *session) decodeChunk(feats *tensor.Matrix, labels []int, at func(int) []byte, lo int) error {
	for i := range labels {
		c := s.cands[lo+i]
		y, err := data.DecodeRecordInto(at(lo+i), feats.Row(i))
		if want := s.train.Labels[c]; err != nil || y != want {
			return recordError(c, err, y, want)
		}
		labels[i] = y
	}
	return nil
}

// recordError stays out of line so decodeChunk never boxes operands.
//
//go:noinline
func recordError(c int, err error, got, want int) error {
	if err != nil {
		return fmt.Errorf("core: stored record %d: %w", c, err)
	}
	return fmt.Errorf("core: stored record %d holds label %d, the dataset's is %d", c, got, want)
}

// rowsOf points s.embView at rows [lo, hi) of s.emb.
func (s *session) rowsOf(lo, hi int) *tensor.Matrix {
	v := &s.embView
	v.Rows, v.Cols = hi-lo, s.emb.Cols
	v.Data = s.emb.Data[lo*v.Cols : hi*v.Cols]
	return v
}

// selectSubset runs one near-storage selection pass over the candidate
// pool: the embed loop over the records the source hands back, then
// the configured selector — or, when streaming, the single-pass sieve
// fed chunk by chunk, so the pool's embedding matrix never exists. The
// pass's losses (the §3.2.2 feedback signal) land in s.losses.
// degraded reports a scan the pass could not complete; the epoch then
// falls back.
func (s *session) selectSubset(m *nn.MLP) (selection.Result, bool, error) {
	pool := len(s.cands)
	k := subsetK(s.frac, s.n, pool)
	var sieve *streaming.Selector
	if s.opt.Streaming {
		// The dataset's label metadata sizes the sieve's classes.
		s.counts = slices.Grow(s.counts[:0], s.train.Spec.Classes)[:s.train.Spec.Classes]
		clear(s.counts)
		for _, c := range s.cands {
			s.counts[s.train.Labels[c]]++
		}
		cfg := streaming.Config{
			Classes: len(s.counts), Dim: len(s.counts), K: k, ClassCounts: s.counts, Seed: s.rng.Uint64(),
		}
		if s.sieve == nil {
			sel, err := streaming.NewSelector(cfg)
			if err != nil {
				return selection.Result{}, false, err
			}
			s.sieve = sel
		} else if err := s.sieve.Reset(cfg); err != nil {
			return selection.Result{}, false, err
		}
		sieve = s.sieve
	}
	degraded, err := s.src.scan(s.cands, s.chunk(), sieve != nil, func(lo, hi int, at func(int) []byte) error {
		if sieve == nil {
			return s.embedChunk(m, at, lo, hi, s.rowsOf(lo, hi))
		}
		emb := s.rowsOf(0, hi-lo)
		if err := s.embedChunk(m, at, lo, hi, emb); err != nil {
			return err
		}
		return sieve.Push(emb, nil, s.labels[lo:hi])
	}, s.rep)
	if err != nil || degraded {
		return selection.Result{}, degraded, err
	}

	// Selection runs on local candidate positions; map back after.
	local := s.pos[:pool]
	var res selection.Result
	switch {
	case sieve != nil:
		res, _, err = sieve.Finish()
	case s.opt.Selector == SelectorFacility:
		res, err = s.perClassFacility(k)
	case s.opt.Selector == SelectorKCenters:
		res, err = selection.KCenters(s.rowsOf(0, pool), local, k)
		if err == nil {
			// Sener & Savarese train the k-centers subset unweighted
			// (active-learning style): no medoid reweighting corrects
			// the boundary-heavy sampling — the reason the baseline
			// collapses at small subsets in Table 3.
			for i := range res.Weights {
				res.Weights[i] = 1
			}
		}
	case s.opt.Selector == SelectorRandom:
		res, err = selection.Random(local, k, s.rng)
	case s.opt.Selector == SelectorTopLoss:
		res, err = selection.TopLoss(s.losses[:pool], local, k)
	default:
		err = fmt.Errorf("core: unknown selector %q", s.opt.Selector)
	}
	if err != nil {
		return selection.Result{}, false, err
	}
	for i, p := range res.Selected {
		res.Selected[i] = s.cands[p]
	}
	return res, false, nil
}

// perClassFacility runs the per-class facility-location selection of a
// batch pass over the pool's embeddings, into s.picked: each class's
// stochastic greedy — partitioned when configured — on that class's
// scratch and RNG.
func (s *session) perClassFacility(k int) (selection.Result, error) {
	classes := s.train.Spec.Classes
	if s.scratch == nil {
		s.classes = make([][]int, classes)
		s.scratch = make([]*selection.Scratch, classes)
		for ci := range s.scratch {
			s.scratch[ci] = new(selection.Scratch)
		}
		s.crng = make([]tensor.RNG, classes)
	}
	for ci := range s.classes {
		s.classes[ci] = s.classes[ci][:0]
	}
	for i, y := range s.labels[:len(s.cands)] {
		s.classes[y] = append(s.classes[y], i)
	}
	// One base seed per selection pass (drawn serially from the run
	// RNG), then an independent stream per class, so the per-class
	// fan-out is both race-free and deterministic for any worker count.
	base := s.rng.Uint64()
	err := selection.PerClassInto(&s.picked, s.rowsOf(0, len(s.cands)), s.classes, k, func(ci int) selection.Maximizer {
		crng, sc := &s.crng[ci], s.scratch[ci]
		crng.SetState(selection.ClassStream(base, ci).State())
		inner := sc.StochasticMaximizer(s.opt.Eps, crng)
		if s.opt.Partition {
			inner = sc.PartitionedMaximizer(s.opt.PartitionM, crng, inner)
		}
		return inner
	})
	return s.picked, err
}

// positions returns 0, 1, …, n-1.
func positions(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func validateOptions(opt *Options) error {
	if !(0 < opt.SubsetFrac && opt.SubsetFrac <= 1) {
		return fmt.Errorf("core: subset fraction %v out of (0,1]", opt.SubsetFrac)
	}
	if opt.SelectEvery <= 0 {
		opt.SelectEvery = 1
	}
	if opt.SubsetBias {
		if opt.BiasWindow <= 0 || opt.BiasEvery <= 0 {
			return fmt.Errorf("core: subset biasing needs positive window/interval, got %d/%d",
				opt.BiasWindow, opt.BiasEvery)
		}
	}
	if opt.Partition && opt.PartitionM <= 0 {
		return fmt.Errorf("core: partitioning needs positive m, got %d", opt.PartitionM)
	}
	if opt.DynamicSizing {
		if !(0 < opt.ShrinkFactor && opt.ShrinkFactor < 1) {
			return fmt.Errorf("core: shrink factor %v out of (0,1)", opt.ShrinkFactor)
		}
		if !(0 < opt.MinSubsetFrac && opt.MinSubsetFrac <= opt.SubsetFrac) {
			return fmt.Errorf("core: min subset fraction %v invalid for initial %v",
				opt.MinSubsetFrac, opt.SubsetFrac)
		}
		if opt.ShrinkPatience <= 0 {
			opt.ShrinkPatience = 1
		}
	}
	if opt.Streaming && opt.Selector != SelectorFacility {
		return fmt.Errorf("core: streaming selection requires the facility selector, got %q", opt.Selector)
	}
	if opt.StreamChunk < 0 {
		return fmt.Errorf("core: stream chunk must be >= 0, got %d", opt.StreamChunk)
	}
	if opt.Workers < 0 {
		return fmt.Errorf("core: workers must be >= 0, got %d", opt.Workers)
	}
	if opt.Workers == 0 {
		opt.Workers = runtime.NumCPU()
	}
	switch storage := opt.Device != nil || opt.Cluster != nil; {
	case opt.Device != nil && opt.Cluster != nil:
		return fmt.Errorf("core: Device and Cluster are mutually exclusive")
	case storage && opt.DatasetName == "":
		return fmt.Errorf("core: device or cluster attached without a dataset name")
	case opt.Injector != nil && !storage:
		return fmt.Errorf("core: fault injector attached without a device or cluster")
	}
	if opt.CheckpointEvery < 0 {
		return fmt.Errorf("core: checkpoint interval must be >= 0, got %d", opt.CheckpointEvery)
	}
	if opt.CheckpointEvery > 0 && opt.CheckpointSink == nil {
		return fmt.Errorf("core: checkpoint interval set without a sink")
	}
	return nil
}
