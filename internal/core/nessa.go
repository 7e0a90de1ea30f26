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

	// BitExact selects the kernel tier. True (the default) keeps every
	// result — training trajectories, selections, evaluations — bitwise
	// identical across worker counts, machines, and PRs: one IEEE-754
	// multiply and one add per term, never fused. False permits the
	// AVX2/FMA fast tier in internal/tensor: still deterministic and
	// worker-count invariant, but its fused roundings diverge from the
	// bit-exact trajectory within the tolerance documented in DESIGN.md
	// §4.9. On hardware without AVX2/FMA the flag is a no-op.
	BitExact bool

	// Optional storage integration: when Device is non-nil every
	// selection read, subset transfer, and feedback transfer is charged
	// to the device's clock and accountant. DatasetName must identify a
	// stored dataset image on the device.
	Device      *smartssd.Device
	DatasetName string

	// Fault tolerance (§4.6). Injector, when non-nil, is attached to
	// Device before the run and perturbs storage operations with its
	// seeded fault schedule; it requires Device. Retry bounds the
	// recovery loop around each candidate scan (zero value means
	// smartssd.DefaultRetryPolicy). When a scan still fails with a
	// degradable fault after retries, the epoch falls back to weighted-
	// random selection over a host-path read so the job completes;
	// permanent faults (addressing, capacity, missing data) abort.
	Injector *faults.Injector
	Retry    smartssd.RetryPolicy

	// RawScan bypasses the resilient read and per-record CRC verify on
	// the scan path, reading exactly as the pre-fault-tolerance
	// pipeline did. Benchmark-only: it exists so bench-faults can
	// price the clean-path overhead of the recovery machinery.
	RawScan bool

	// Streaming switches the facility selector to the single-pass
	// sieve pipeline (internal/selection/streaming): the
	// candidate scan is consumed chunk by chunk and the full embedding
	// matrix is never materialized, so selection state stays within
	// the FPGA's on-chip budget regardless of dataset size. Requires
	// SelectorFacility. StreamChunk is the records per scan chunk
	// (0 = 8192).
	Streaming   bool
	StreamChunk int

	// Device-loss recovery (§4.11). Cluster attaches a multi-device
	// group in place of Device: every reselection scan runs as one
	// ParallelScan of DatasetName, and when the dataset was placed
	// with parity (smartssd.Placement.ParityShards > 0) the scan survives
	// whole-device loss by reconstructing lost stripes from the survivors.
	// Mutually exclusive with Device; requires DatasetName. The
	// streaming selector and RawScan are single-device paths and are
	// rejected with a cluster. AutoRebuild, after a scan that reports
	// degraded reads while a spare is attached, rebuilds the lost
	// shard onto the spare before the next epoch and charges the wall
	// time to Report.Recovery.RebuildTime.
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
		BitExact:       true,
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

// devices lists the attached drives — the single Device, the Cluster's
// members, or none. It is resolved at each call, so a spare that
// Rebuild swapped into the group is seen from the next use on.
func (o *Options) devices() []*smartssd.Device {
	switch {
	case o.Device != nil:
		return []*smartssd.Device{o.Device}
	case o.Cluster != nil:
		return o.Cluster.Devices
	}
	return nil
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
	// Kernel-tier knob, same contract as the worker count: process-wide,
	// flipped between runs. With BitExact the fast tier is off and the
	// request below is a no-op that re-asserts the default.
	tensor.SetFastMath(!opt.BitExact)
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

	n        int
	recBytes int64
	rng      *tensor.RNG // controller RNG: selection seeds and fallbacks
	tr       *trainer.Trainer

	epoch      int // next epoch to execute
	cands      []int
	hist       *lossHistory
	frac       float64
	slowEpochs int
	prevLoss   float64
	dropped    int
	current    selection.Result

	rep       *Report
	lostStart int // cluster losses that predate this run
}

func newSession(train, test *data.Dataset, tcfg trainer.Config, opt Options) (*session, error) {
	n := train.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	s := &session{
		train: train, test: test, tcfg: tcfg, opt: opt,
		n:        n,
		rng:      tensor.NewRNG(opt.Seed),
		hist:     newLossHistory(n, opt.BiasWindow),
		frac:     opt.SubsetFrac,
		prevLoss: -1,
		rep:      &Report{},
	}
	s.rep.Recovery.ResumedFromEpoch = -1
	if opt.Device != nil || opt.Cluster != nil {
		var err error
		s.recBytes, err = data.RecordSize(train.Spec)
		if err != nil {
			return nil, err
		}
	}
	if opt.Injector != nil {
		for _, d := range opt.devices() {
			d.SetInjector(opt.Injector)
		}
	}
	if opt.Cluster != nil {
		// Per-record CRC verification on every scanned (and
		// reconstructed) stripe, same contract as the single-device
		// resilient read path.
		opt.Cluster.Verify = verifyRecords(s.recBytes)
		s.lostStart = opt.Cluster.LostCount()
	}
	if opt.Resume != nil {
		if err := s.restore(opt.Resume); err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		s.rep.Recovery.ResumedFromEpoch = s.epoch
	} else {
		s.tr = trainer.New(train.Spec, tcfg)
		s.cands = make([]int, n)
		for i := range s.cands {
			s.cands[i] = i
		}
	}
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
				qm := quant.QuantizeModel(s.tr.Model)
				selModel = qm.Dequantized()
				// The quantized selection model is broadcast to every
				// attached drive.
				for _, d := range opt.devices() {
					d.ReceiveFeedback(qm.SizeBytes())
				}
			}
			degraded := false
			var res selection.Result
			var losses []float32
			if opt.Streaming {
				// Single-pass selection: the chunked scan charges its own
				// I/O, so there is no monolithic candidate read.
				var err error
				res, losses, err = selectSubsetStreaming(selModel, s.train, s.cands, s.frac, opt, s.rng, s.recBytes, &rep.Faults)
				if err != nil {
					if opt.Device == nil || !faults.IsDegradable(err) {
						return nil, fmt.Errorf("core: streaming selection: %w", err)
					}
					degraded = true
				}
			} else if opt.Device != nil {
				// Near-storage scan of the remaining candidates.
				length := int64(len(s.cands)) * s.recBytes
				if opt.RawScan {
					if _, err := opt.Device.ReadToFPGA(opt.DatasetName, 0, length, len(s.cands)); err != nil {
						return nil, fmt.Errorf("core: candidate scan: %w", err)
					}
				} else {
					_, st, err := opt.Device.ReadResilient(opt.DatasetName, 0, length, len(s.cands),
						verifyRecords(s.recBytes), opt.Retry)
					rep.Faults.absorb(st)
					if err != nil {
						if !faults.IsDegradable(err) {
							return nil, fmt.Errorf("core: candidate scan: %w", err)
						}
						// The near-storage pipeline is unavailable this
						// epoch even after retries; degrade rather than
						// abort the whole job.
						degraded = true
					}
				}
			} else if opt.Cluster != nil {
				// Striped scan across the group. Per-shard retry and
				// parity reconstruction have already absorbed every fault
				// the placement can mask, so a residual error is fatal:
				// more devices are gone than the parity budget covers.
				_, st, _, err := opt.Cluster.ParallelScan(opt.DatasetName, s.recBytes)
				rep.Faults.absorb(st.Read)
				rep.Faults.Retries += st.Reissues
				rep.Recovery.DegradedReads += st.DegradedReads
				rep.Recovery.ReconstructedBytes += st.ReconstructedBytes
				if err != nil {
					return nil, fmt.Errorf("core: cluster candidate scan: %w", err)
				}
				if st.DegradedReads > 0 && opt.AutoRebuild && opt.Cluster.Spares() > 0 {
					dur, err := opt.Cluster.Rebuild(opt.DatasetName)
					if err != nil {
						return nil, fmt.Errorf("core: rebuild after degraded scan: %w", err)
					}
					rep.Recovery.RebuildTime += dur
				}
			}
			if degraded {
				res, err := fallbackSubset(s.train, s.cands, s.frac, opt, s.rng, s.recBytes, &rep.Faults)
				if err != nil {
					return nil, err
				}
				s.current = res
				rep.Faults.FallbackEpochs++
				// No selection pass ran, so there are no fresh losses to
				// feed the subset-biasing history this epoch.
			} else {
				if !opt.Streaming {
					var err error
					res, losses, err = selectSubset(selModel, s.train, s.cands, s.frac, opt, s.rng)
					if err != nil {
						return nil, err
					}
				}
				s.current = res
				s.hist.record(s.cands, losses)
				shipped := int64(len(s.current.Selected)) * s.recBytes
				// The subset ships to the GPU from member 0 — a group's
				// aggregation point.
				if ds := opt.devices(); len(ds) > 0 {
					ds[0].SendToGPU(shipped, len(s.current.Selected))
				}
			}
		}

		subset := s.train.Subset(s.current.Selected)
		loss := s.tr.TrainEpoch(subset.X, subset.Labels, s.current.Weights)

		rep.Metrics.EpochLoss = append(rep.Metrics.EpochLoss, loss)
		rep.Metrics.EpochAcc = append(rep.Metrics.EpochAcc, s.tr.Evaluate(s.test))
		rep.Metrics.SubsetSizes = append(rep.Metrics.SubsetSizes, subset.Len())
		rep.EpochSubsetFrac = append(rep.EpochSubsetFrac, float64(subset.Len())/float64(s.n))

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
	if opt.Cluster != nil {
		rep.Recovery.DevicesLost += opt.Cluster.LostCount() - s.lostStart
	}
	return rep, nil
}

// verifyRecords returns a per-record CRC verifier for scan payloads.
func verifyRecords(recordSize int64) func([]byte) error {
	return func(buf []byte) error { return data.VerifyImage(buf, recordSize) }
}

// subsetK sizes the subset: frac of the full set, clamped to [1, pool].
func subsetK(frac float64, n, pool int) int {
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	if k > pool {
		k = pool
	}
	return k
}

// fallbackSubset implements degraded-mode selection (§4.6): when the
// near-storage scan is unavailable even after retries, pick a weighted-
// random subset (the unbiased n/k-weighted baseline — no fresh loss or
// gradient information exists without a scan) and fetch exactly those
// records over the resilient host path. A failure here is fatal: both
// the near-storage and conventional paths are down.
func fallbackSubset(train *data.Dataset, cands []int, frac float64, opt Options, rng *tensor.RNG, recBytes int64, fr *FaultReport) (selection.Result, error) {
	k := subsetK(frac, train.Len(), len(cands))
	local := make([]int, len(cands))
	for i := range local {
		local[i] = i
	}
	res, err := selection.Random(local, k, rng)
	if err != nil {
		return selection.Result{}, fmt.Errorf("core: fallback selection: %w", err)
	}
	for i, s := range res.Selected {
		res.Selected[i] = cands[s]
	}
	length := int64(len(res.Selected)) * recBytes
	_, st, err := opt.Device.ReadResilientHost(opt.DatasetName, 0, length, len(res.Selected),
		verifyRecords(recBytes), opt.Retry)
	fr.absorb(st)
	if err != nil {
		return selection.Result{}, fmt.Errorf("core: degraded-mode host read: %w", err)
	}
	opt.Device.SendToGPU(length, len(res.Selected))
	return res, nil
}

// selectSubset runs one near-storage selection pass: a forward of the
// selection model over the candidates, gradient-embedding extraction,
// and the configured selector. It returns the selection and the
// candidates' current losses (the §3.2.2 feedback signal).
func selectSubset(selModel *nn.MLP, train *data.Dataset, cands []int, frac float64, opt Options, rng *tensor.RNG) (selection.Result, []float32, error) {
	candSet := train.Subset(cands)
	logits := selModel.Forward(candSet.X)
	losses := nn.SoftmaxCE(logits, candSet.Labels, nil, nil)
	localEmb := nn.GradEmbeddings(logits, candSet.Labels)

	k := subsetK(frac, train.Len(), len(cands))

	// Selection runs on local candidate positions; map back after.
	local := make([]int, len(cands))
	for i := range local {
		local[i] = i
	}

	var res selection.Result
	var err error
	switch opt.Selector {
	case SelectorFacility:
		classes := make([][]int, train.Spec.Classes)
		for i, y := range candSet.Labels {
			classes[y] = append(classes[y], i)
		}
		// One base seed per selection pass (drawn serially from the run
		// RNG), then an independent stream per class, so the per-class
		// fan-out is both race-free and deterministic for any worker
		// count.
		base := rng.Uint64()
		res, err = selection.PerClassWith(localEmb, classes, k, func(ci int) selection.Maximizer {
			crng := selection.ClassStream(base, ci)
			inner := selection.StochasticMaximizer(opt.Eps, crng)
			if opt.Partition {
				inner = selection.PartitionedMaximizer(opt.PartitionM, crng, inner)
			}
			return inner
		})
	case SelectorKCenters:
		res, err = selection.KCenters(localEmb, local, k)
		if err == nil {
			// Sener & Savarese train the k-centers subset unweighted
			// (active-learning style): no medoid reweighting corrects
			// the boundary-heavy sampling — the reason the baseline
			// collapses at small subsets in Table 3.
			for i := range res.Weights {
				res.Weights[i] = 1
			}
		}
	case SelectorRandom:
		res, err = selection.Random(local, k, rng)
	case SelectorTopLoss:
		res, err = selection.TopLoss(losses, local, k)
	default:
		err = fmt.Errorf("core: unknown selector %q", opt.Selector)
	}
	if err != nil {
		return selection.Result{}, nil, err
	}
	for i, s := range res.Selected {
		res.Selected[i] = cands[s]
	}
	return res, losses, nil
}

// selectSubsetStreaming runs one single-pass selection epoch: the
// candidate records stream through the selection model in chunks
// (double-buffered against NAND reads when a device is attached), each
// chunk's gradient embeddings feed the sieve, and the full embedding
// matrix never exists. Losses for the §3.2.2 feedback signal are
// captured per chunk into one O(n)-float slice — the only per-
// candidate state the pass keeps.
func selectSubsetStreaming(selModel *nn.MLP, train *data.Dataset, cands []int, frac float64, opt Options, rng *tensor.RNG, recBytes int64, fr *FaultReport) (selection.Result, []float32, error) {
	k := subsetK(frac, train.Len(), len(cands))
	classes := train.Spec.Classes
	counts := make([]int, classes)
	for _, c := range cands {
		counts[train.Labels[c]]++
	}
	sel, err := streaming.NewSelector(streaming.Config{
		Classes:     classes,
		Dim:         classes,
		K:           k,
		ClassCounts: counts,
		Seed:        rng.Uint64(),
	})
	if err != nil {
		return selection.Result{}, nil, err
	}
	chunk := opt.StreamChunk
	if chunk <= 0 {
		chunk = 8192
	}
	if chunk > len(cands) {
		chunk = len(cands)
	}
	losses := make([]float32, len(cands))
	feats := tensor.NewMatrix(chunk, train.X.Cols)
	emb := tensor.NewMatrix(chunk, classes)
	labels := make([]int, chunk)
	var scratch nn.FwdScratch
	probs := make([]float32, classes)
	process := func(lo, hi int) error {
		m := hi - lo
		fview := tensor.Matrix{Rows: m, Cols: feats.Cols, Data: feats.Data[:m*feats.Cols]}
		tensor.GatherRows(&fview, train.X, cands[lo:hi])
		for i := lo; i < hi; i++ {
			labels[i-lo] = train.Labels[cands[i]]
		}
		logits := selModel.ForwardInto(&scratch, &fview)
		nn.SoftmaxCEInto(losses[lo:hi], probs, logits, labels[:m], nil, nil)
		eview := tensor.Matrix{Rows: m, Cols: classes, Data: emb.Data[:m*classes]}
		nn.GradEmbeddingsInto(&eview, logits, labels[:m])
		return sel.Push(&eview, nil, labels[:m])
	}
	if opt.Device != nil {
		scan := streaming.ScanConfig{
			Object:       opt.DatasetName,
			RecordBytes:  recBytes,
			Candidates:   cands,
			ChunkRecords: chunk,
			Retry:        opt.Retry,
		}
		if !opt.RawScan {
			scan.Verify = verifyRecords(recBytes)
		}
		st, err := streaming.ScanRecords(opt.Device, scan, func(_, lo, hi int, _ int64, _ []byte) error {
			return process(lo, hi)
		})
		fr.absorb(st.Read)
		if err != nil {
			return selection.Result{}, nil, err
		}
	} else {
		for lo := 0; lo < len(cands); lo += chunk {
			hi := lo + chunk
			if hi > len(cands) {
				hi = len(cands)
			}
			if err := process(lo, hi); err != nil {
				return selection.Result{}, nil, err
			}
		}
	}
	res, _, err := sel.Finish()
	if err != nil {
		return selection.Result{}, nil, err
	}
	// Stream position p was candidate-list index p.
	for i, p := range res.Selected {
		res.Selected[i] = cands[p]
	}
	return res, losses, nil
}

func validateOptions(opt *Options) error {
	if opt.SubsetFrac <= 0 || opt.SubsetFrac > 1 {
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
		if opt.ShrinkFactor <= 0 || opt.ShrinkFactor >= 1 {
			return fmt.Errorf("core: shrink factor %v out of (0,1)", opt.ShrinkFactor)
		}
		if opt.MinSubsetFrac <= 0 || opt.MinSubsetFrac > opt.SubsetFrac {
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
	if opt.Device != nil && opt.DatasetName == "" {
		return fmt.Errorf("core: device attached without a dataset name")
	}
	if opt.Cluster != nil {
		if opt.Device != nil {
			return fmt.Errorf("core: Device and Cluster are mutually exclusive")
		}
		if opt.DatasetName == "" {
			return fmt.Errorf("core: cluster attached without a dataset name")
		}
		if opt.Streaming {
			return fmt.Errorf("core: streaming selection is a single-device path; not supported with a cluster")
		}
		if opt.RawScan {
			return fmt.Errorf("core: raw scan is a single-device path; not supported with a cluster")
		}
	}
	if opt.Injector != nil && opt.Device == nil && opt.Cluster == nil {
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
