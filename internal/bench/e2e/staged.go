package e2e

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"nessa/internal/core"
	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/nn"
	"nessa/internal/parallel"
	"nessa/internal/quant"
	"nessa/internal/selection"
	"nessa/internal/selection/streaming"
	"nessa/internal/tensor"
	"nessa/internal/trainer"
)

// Series is the part of a session's outcome the bit-identity checks
// compare: per-epoch training loss, test accuracy and subset size.
type Series struct {
	Loss, Acc []float64
	Sizes     []int
}

// SeriesOf extracts the comparable series from a core.Run report.
func SeriesOf(rep *core.Report) Series {
	return Series{Loss: rep.Metrics.EpochLoss, Acc: rep.Metrics.EpochAcc, Sizes: rep.Metrics.SubsetSizes}
}

// Equal reports whether two series match bit for bit.
func (a Series) Equal(b Series) bool {
	if len(a.Loss) != len(b.Loss) || len(a.Acc) != len(b.Acc) || len(a.Sizes) != len(b.Sizes) {
		return false
	}
	for i := range a.Loss {
		if math.Float64bits(a.Loss[i]) != math.Float64bits(b.Loss[i]) {
			return false
		}
	}
	for i := range a.Acc {
		if math.Float64bits(a.Acc[i]) != math.Float64bits(b.Acc[i]) {
			return false
		}
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] {
			return false
		}
	}
	return true
}

// Span names, one per layer call the staged controller brackets. The
// prefix is the layer (module) the time belongs to.
const (
	spanRun      = "core.run"
	spanEpoch    = "core.epoch"
	spanBias     = "core.bias_prune"
	spanQuantize = "quant.quantize"
	spanFeedback = "smartssd.feedback"
	spanScan     = "smartssd.scan"
	spanRebuild  = "smartssd.rebuild"
	spanShip     = "smartssd.ship"
	spanVerify   = "data.verify"
	spanGather   = "data.gather"
	spanForward  = "nn.forward"
	spanEmbed    = "nn.embed"
	spanSelect   = "selection.select"
	spanChunk    = "streaming.chunk"
	spanPush     = "streaming.push"
	spanFinish   = "streaming.finish"
	spanTrain    = "trainer.train"
	spanEval     = "trainer.eval"
)

// Staged is the outcome of one staged session: the series that must
// match core.Run's, and the counts taken at the same boundaries as the
// spans. Byte and record counts are run totals.
type Staged struct {
	Root   int // ID of the session's root span
	Series Series

	ReselectEpochs int
	PoolRecords    int64 // candidates scanned, summed over reselect epochs
	SubsetRecords  int64 // samples trained on, summed over epochs
	ModelBytes     int64 // quantized selection model, one feedback

	ScanBytes    int64
	ScanAttempts int
	Retries      int
	ScanSim      time.Duration // simulated time charged to scans
	ScanBound    time.Duration // modeled link floor of the same scans
	ShipSim      time.Duration
	ShipBytes    int64
	FeedbackSim  time.Duration
	VerifyBytes  int64
	ForwardRows  int64

	DegradedReads      int
	ReconstructedBytes int64
	RebuildSim         time.Duration
	DevicesLost        int
	InjectedKills      int64

	PushRecords    int64
	ActiveLevels   int // at the last Finish
	ReservoirRows  int
	StateBytes     int64
	TrainMallocs   uint64 // heap allocations during TrainEpoch calls
	TrainEpochs    int
	degradedScanID map[int]bool // IDs of the scan spans that reconstructed a stripe
}

// lossHistory mirrors core's unexported per-sample loss ring (the
// record behind subset biasing, §3.2.2).
type lossHistory struct {
	window int
	buf    [][]float32
	pos    []int
	count  []int
}

func newLossHistory(n, window int) *lossHistory {
	if window <= 0 {
		window = 1
	}
	return &lossHistory{window: window, buf: make([][]float32, n), pos: make([]int, n), count: make([]int, n)}
}

func (h *lossHistory) record(indices []int, losses []float32) {
	for i, idx := range indices {
		if h.buf[idx] == nil {
			h.buf[idx] = make([]float32, h.window)
		}
		h.buf[idx][h.pos[idx]] = losses[i]
		h.pos[idx] = (h.pos[idx] + 1) % h.window
		if h.count[idx] < h.window {
			h.count[idx]++
		}
	}
}

func (h *lossHistory) learned(idx int, threshold float32) bool {
	if h.count[idx] < h.window {
		return false
	}
	var sum float32
	for _, l := range h.buf[idx] {
		sum += l
	}
	return sum/float32(h.window) < threshold
}

// subsetK sizes the subset as core does: frac of the full set, clamped
// to [1, pool].
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

// streamChunk is core's scan-chunk sizing for the streaming selector.
func streamChunk(opt core.Options, pool int) int {
	chunk := opt.StreamChunk
	if chunk <= 0 {
		chunk = 8192
	}
	if chunk > pool {
		chunk = pool
	}
	return chunk
}

// mirrored reports whether the staged controller reproduces session.run
// for this option set. It covers the four benchmark workloads and
// nothing else: facility selection with quantized feedback on a device
// or a cluster, no checkpoints, no raw scan, no degraded-mode fallback.
func mirrored(opt core.Options) error {
	switch {
	case opt.Selector != core.SelectorFacility, !opt.QuantFeedback:
		return fmt.Errorf("e2e: staged controller mirrors only quantized-feedback facility selection")
	case opt.RawScan, opt.CheckpointSink != nil, opt.Resume != nil:
		return fmt.Errorf("e2e: staged controller does not mirror raw scans or checkpointed sessions")
	case (opt.Device == nil) == (opt.Cluster == nil):
		return fmt.Errorf("e2e: staged controller needs exactly one of Device and Cluster")
	case opt.Streaming && opt.Cluster != nil:
		return fmt.Errorf("e2e: streaming selection is a single-device path")
	case opt.SelectEvery <= 0, opt.Workers <= 0:
		return fmt.Errorf("e2e: staged controller needs positive SelectEvery and Workers")
	}
	return nil
}

// RunStaged runs one session as a staged epoch loop: the same public
// layer functions core's session.run calls, in the same order and with
// the same arguments, each inside a span. It measures session.run's
// composition as of the commit that added this file; the smoke test
// pins the two together by requiring bit-identical series.
func RunStaged(in *Instance, rec *Recorder) (*Staged, error) {
	opt, train := in.Opt, in.Train
	if err := mirrored(opt); err != nil {
		return nil, err
	}
	parallel.SetDefaultWorkers(opt.Workers)
	tensor.SetFastMath(!opt.BitExact)

	n := train.Len()
	recBytes, err := data.RecordSize(train.Spec)
	if err != nil {
		return nil, err
	}
	out := &Staged{degradedScanID: map[int]bool{}}
	out.Root = rec.BeginRun(spanRun)
	defer rec.End(out.Root)

	// The verify callback is the benchmark's own, so wrapping it times
	// data.VerifyImage without touching the program. scanSpan is the
	// scan or rebuild stage currently open, the parent of the verify
	// spans; it is set before the stage starts reading.
	scanSpan := -1
	verifyOn := func(track int) func([]byte) error {
		return func(buf []byte) error {
			id := rec.BeginOn(track, scanSpan, spanVerify)
			err := data.VerifyImage(buf, recBytes)
			rec.End(id)
			out.VerifyBytes += int64(len(buf))
			return err
		}
	}

	lostStart := 0
	if opt.Injector != nil {
		if opt.Cluster != nil {
			opt.Cluster.SetInjector(opt.Injector)
		} else {
			opt.Device.SetInjector(opt.Injector)
		}
	}
	if opt.Cluster != nil {
		opt.Cluster.Verify = verifyOn(0)
		lostStart = opt.Cluster.LostCount()
	}

	rng := tensor.NewRNG(opt.Seed)
	tr := trainer.New(train.Spec, in.Cfg)
	hist := newLossHistory(n, opt.BiasWindow)
	cands := make([]int, n)
	for i := range cands {
		cands[i] = i
	}
	frac, prevLoss, slowEpochs := opt.SubsetFrac, -1.0, 0
	var current selection.Result

	for e := 0; e < in.Cfg.Epochs; e++ {
		ep := rec.Begin(out.Root, spanEpoch)
		tr.SetEpoch(e)

		if e%opt.SelectEvery == 0 || current.Selected == nil {
			out.ReselectEpochs++
			out.PoolRecords += int64(len(cands))

			id := rec.Begin(ep, spanQuantize)
			qm := quant.QuantizeModel(tr.Model)
			selModel := qm.Dequantized()
			rec.End(id)
			out.ModelBytes = qm.SizeBytes()

			id = rec.Begin(ep, spanFeedback)
			if opt.Device != nil {
				out.FeedbackSim += opt.Device.ReceiveFeedback(qm.SizeBytes())
			} else {
				var dur time.Duration
				for _, d := range opt.Cluster.Devices {
					dur = d.ReceiveFeedback(qm.SizeBytes())
				}
				out.FeedbackSim += dur // the drives receive in parallel
			}
			rec.End(id)

			var res selection.Result
			var losses []float32
			switch {
			case opt.Streaming:
				res, losses, err = stagedStreaming(in, rec, out, ep, &scanSpan, selModel, cands, frac, rng, recBytes, verifyOn(1))
				if err != nil {
					return nil, fmt.Errorf("e2e: staged streaming selection: %w", err)
				}
			case opt.Device != nil:
				length := int64(len(cands)) * recBytes
				scanSpan = rec.Begin(ep, spanScan)
				sim0 := opt.Device.Clock.Now()
				_, st, err := opt.Device.ReadResilient(opt.DatasetName, 0, length, len(cands), verifyOn(0), opt.Retry)
				out.ScanSim += opt.Device.Clock.Now() - sim0
				rec.End(scanSpan)
				if err != nil {
					return nil, fmt.Errorf("e2e: staged candidate scan: %w", err)
				}
				out.ScanBytes += length
				out.ScanBound += opt.Device.P2P.Duration(length, len(cands))
				out.ScanAttempts += st.Attempts
				out.Retries += st.Retries
			default:
				scanSpan = rec.Begin(ep, spanScan)
				shards, st, wall, err := opt.Cluster.ParallelScan(opt.DatasetName, recBytes)
				rec.End(scanSpan)
				if err != nil {
					return nil, fmt.Errorf("e2e: staged cluster scan: %w", err)
				}
				out.ScanSim += wall
				var bound time.Duration
				for _, sh := range shards {
					out.ScanBytes += int64(len(sh))
					if b := opt.Cluster.Devices[0].P2P.Duration(int64(len(sh)), len(sh)/int(recBytes)); b > bound {
						bound = b
					}
				}
				out.ScanBound += bound
				out.ScanAttempts += st.Read.Attempts
				out.Retries += st.Read.Retries + st.Reissues
				out.DegradedReads += st.DegradedReads
				out.ReconstructedBytes += st.ReconstructedBytes
				if st.DegradedReads > 0 {
					out.degradedScanID[scanSpan] = true
					if opt.AutoRebuild && opt.Cluster.Spares() > 0 {
						scanSpan = rec.Begin(ep, spanRebuild)
						dur, err := opt.Cluster.Rebuild(opt.DatasetName)
						rec.End(scanSpan)
						if err != nil {
							return nil, fmt.Errorf("e2e: staged rebuild: %w", err)
						}
						out.RebuildSim += dur
					}
				}
			}
			if !opt.Streaming {
				res, losses, err = stagedBatch(in, rec, out, ep, selModel, cands, frac, rng)
				if err != nil {
					return nil, err
				}
			}
			current = res
			hist.record(cands, losses)

			shipped := int64(len(current.Selected)) * recBytes
			id = rec.Begin(ep, spanShip)
			if opt.Device != nil {
				out.ShipSim += opt.Device.SendToGPU(shipped, len(current.Selected))
			} else {
				out.ShipSim += opt.Cluster.Devices[0].SendToGPU(shipped, len(current.Selected))
			}
			rec.End(id)
			out.ShipBytes += shipped
		}

		id := rec.Begin(ep, spanGather)
		subset := train.Subset(current.Selected)
		rec.End(id)

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id = rec.Begin(ep, spanTrain)
		loss := tr.TrainEpoch(subset.X, subset.Labels, current.Weights)
		rec.End(id)
		runtime.ReadMemStats(&m1)
		out.TrainMallocs += m1.Mallocs - m0.Mallocs
		out.TrainEpochs++
		out.SubsetRecords += int64(subset.Len())

		id = rec.Begin(ep, spanEval)
		acc := tr.Evaluate(in.Test)
		rec.End(id)

		out.Series.Loss = append(out.Series.Loss, loss)
		out.Series.Acc = append(out.Series.Acc, acc)
		out.Series.Sizes = append(out.Series.Sizes, subset.Len())

		if opt.SubsetBias && (e+1)%opt.BiasEvery == 0 {
			id := rec.Begin(ep, spanBias)
			kept := cands[:0]
			for _, c := range cands {
				if !hist.learned(c, opt.BiasThreshold) {
					kept = append(kept, c)
				}
			}
			if len(kept) >= int(frac*float64(n))+1 {
				cands = kept
				current.Selected = nil
			}
			rec.End(id)
		}

		if opt.DynamicSizing {
			if prevLoss > 0 {
				if rate := (prevLoss - loss) / prevLoss; rate < opt.LossDecayRate {
					slowEpochs++
				} else {
					slowEpochs = 0
				}
				if slowEpochs >= opt.ShrinkPatience {
					next := frac * opt.ShrinkFactor
					if next < opt.MinSubsetFrac {
						next = opt.MinSubsetFrac
					}
					if next < frac {
						frac = next
						current.Selected = nil
					}
					slowEpochs = 0
				}
			}
			prevLoss = loss
		}
		rec.End(ep)
	}

	if opt.Cluster != nil {
		out.DevicesLost = opt.Cluster.LostCount() - lostStart
	}
	out.InjectedKills = opt.Injector.Count(faults.ClassDeviceLost)
	return out, nil
}

// stagedBatch is selectSubset with a span per call: gather the pool,
// forward the selection model, extract losses and gradient embeddings,
// and run per-class partitioned stochastic greedy.
func stagedBatch(in *Instance, rec *Recorder, out *Staged, ep int, selModel *nn.MLP, cands []int, frac float64, rng *tensor.RNG) (selection.Result, []float32, error) {
	opt, train := in.Opt, in.Train

	id := rec.Begin(ep, spanGather)
	candSet := train.Subset(cands)
	rec.End(id)

	id = rec.Begin(ep, spanForward)
	logits := selModel.Forward(candSet.X)
	rec.End(id)
	out.ForwardRows += int64(len(cands))

	id = rec.Begin(ep, spanEmbed)
	losses := nn.SoftmaxCE(logits, candSet.Labels, nil, nil)
	emb := nn.GradEmbeddings(logits, candSet.Labels)
	rec.End(id)

	id = rec.Begin(ep, spanSelect)
	defer rec.End(id)
	res, err := batchSelect(emb, candSet.Labels, train.Spec.Classes, subsetK(frac, train.Len(), len(cands)), opt, rng)
	if err != nil {
		return selection.Result{}, nil, err
	}
	for i, s := range res.Selected {
		res.Selected[i] = cands[s]
	}
	return res, losses, nil
}

// batchSelect is the facility arm of selectSubset over local candidate
// positions: one base seed drawn from the run RNG, one stream per class.
func batchSelect(emb *tensor.Matrix, labels []int, numClasses, k int, opt core.Options, rng *tensor.RNG) (selection.Result, error) {
	classes := make([][]int, numClasses)
	for i, y := range labels {
		classes[y] = append(classes[y], i)
	}
	base := rng.Uint64()
	return selection.PerClassWith(emb, classes, k, func(ci int) selection.Maximizer {
		crng := selection.ClassStream(base, ci)
		inner := selection.StochasticMaximizer(opt.Eps, crng)
		if opt.Partition {
			inner = selection.PartitionedMaximizer(opt.PartitionM, crng, inner)
		}
		return inner
	})
}

// stagedStreaming is selectSubsetStreaming with a span around
// ScanRecords, one per chunk callback under it, and one per call inside
// the callback. verify runs on the prefetch goroutine, records on track
// 1, and parents itself on *scanSpan — set here before the scan starts.
func stagedStreaming(in *Instance, rec *Recorder, out *Staged, ep int, scanSpan *int, selModel *nn.MLP, cands []int, frac float64, rng *tensor.RNG, recBytes int64, verify func([]byte) error) (selection.Result, []float32, error) {
	opt, train := in.Opt, in.Train
	classes := train.Spec.Classes
	counts := make([]int, classes)
	for _, c := range cands {
		counts[train.Labels[c]]++
	}
	sel, err := streaming.NewSelector(streaming.Config{
		Classes: classes, Dim: classes,
		K:           subsetK(frac, train.Len(), len(cands)),
		ClassCounts: counts,
		SketchEvery: -1,
		Seed:        rng.Uint64(),
	})
	if err != nil {
		return selection.Result{}, nil, err
	}
	chunk := streamChunk(opt, len(cands))
	losses := make([]float32, len(cands))
	feats := tensor.NewMatrix(chunk, train.X.Cols)
	emb := tensor.NewMatrix(chunk, classes)
	labels := make([]int, chunk)
	var scratch nn.FwdScratch
	probs := make([]float32, classes)

	scan := rec.Begin(ep, spanScan)
	*scanSpan = scan
	st, err := streaming.ScanRecords(opt.Device, streaming.ScanConfig{
		Object: opt.DatasetName, RecordBytes: recBytes, Candidates: cands,
		ChunkRecords: chunk, Retry: opt.Retry, Verify: verify,
	}, func(_, lo, hi int, _ int64, _ []byte) error {
		ch := rec.Begin(scan, spanChunk)
		defer rec.End(ch)
		m := hi - lo

		id := rec.Begin(ch, spanGather)
		fview := tensor.Matrix{Rows: m, Cols: feats.Cols, Data: feats.Data[:m*feats.Cols]}
		tensor.GatherRows(&fview, train.X, cands[lo:hi])
		for i := lo; i < hi; i++ {
			labels[i-lo] = train.Labels[cands[i]]
		}
		rec.End(id)

		id = rec.Begin(ch, spanForward)
		logits := selModel.ForwardInto(&scratch, &fview)
		rec.End(id)

		id = rec.Begin(ch, spanEmbed)
		nn.SoftmaxCEInto(losses[lo:hi], probs, logits, labels[:m], nil, nil)
		eview := tensor.Matrix{Rows: m, Cols: classes, Data: emb.Data[:m*classes]}
		nn.GradEmbeddingsInto(&eview, logits, labels[:m])
		rec.End(id)

		id = rec.Begin(ch, spanPush)
		err := sel.Push(&eview, nil, labels[:m])
		rec.End(id)
		return err
	})
	rec.End(scan)
	out.ScanBytes += st.Bytes
	out.ScanSim += st.IOTime
	out.ScanBound += st.BoundTime
	out.ScanAttempts += st.Read.Attempts
	out.Retries += st.Read.Retries
	out.ForwardRows += int64(st.Records)
	out.PushRecords += int64(st.Records)
	if err != nil {
		return selection.Result{}, nil, err
	}

	id := rec.Begin(ep, spanFinish)
	res, stats, err := sel.Finish()
	rec.End(id)
	if err != nil {
		return selection.Result{}, nil, err
	}
	out.ActiveLevels, out.ReservoirRows, out.StateBytes = stats.ActiveLevels, stats.Reservoir, stats.StateBytes
	for i, p := range res.Selected {
		res.Selected[i] = cands[p]
	}
	return res, losses, nil
}
