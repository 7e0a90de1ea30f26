package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"nessa/internal/core"
	"nessa/internal/data"
	"nessa/internal/erasure"
	"nessa/internal/faults"
	"nessa/internal/smartssd"
	"nessa/internal/trainer"
)

// RecoveryBenchSpec fixes the workload of the device-loss recovery
// benchmark: end-to-end cluster training runs with and without parity
// placement (the clean-path price of erasure coding), a kill-one-
// device run that must stay bit-identical, a checkpointed run that
// must resume exactly, and a simulated-time degraded-scan measurement
// against the modeled reconstruction bound.
type RecoveryBenchSpec struct {
	Classes       int   `json:"classes"`
	Train         int   `json:"train"`
	Test          int   `json:"test"`
	FeatureDim    int   `json:"featureDim"`
	BytesPerImage int64 `json:"bytesPerImage"`
	Epochs        int   `json:"epochs"`
	Reps          int   `json:"reps"` // timing repetitions (best-of)

	DataShards   int `json:"dataShards"`
	ParityShards int `json:"parityShards"`
	// KillAfterScans is the scripted whole-device kill point of the
	// loss run: device 1 dies after that many completed scans.
	KillAfterScans int64 `json:"killAfterScans"`

	// GFStripeBytes is the stripe length of the host GF(256) throughput
	// measurement, run on a 4+2 code (the smallest placement with a
	// two-loss decode) whatever DataShards/ParityShards say.
	GFStripeBytes int `json:"gfStripeBytes"`
}

// RecoveryCleanScanAllocGate bounds the bytes one steady-state clean
// striped scan may allocate. The scan moves its payloads through the
// cluster's arena, so what is left is slice headers; the quick spec's
// stripes are 87 KB, so a single stray stripe copy trips it.
const RecoveryCleanScanAllocGate = 64 << 10

// DefaultRecoveryBenchSpec mirrors the fault benchmark's sizing —
// training compute dominates the scan, the regime where the clean-path
// overhead gate is honest — with the paper-scale k+1 placement.
func DefaultRecoveryBenchSpec(quick bool) RecoveryBenchSpec {
	s := RecoveryBenchSpec{
		Classes: 10, Train: 1024, Test: 128, FeatureDim: 64,
		BytesPerImage: 512, Epochs: 10, Reps: 5,
		DataShards: 3, ParityShards: 1, KillAfterScans: 3,
		GFStripeBytes: 4 << 20,
	}
	if quick {
		s.Train, s.Epochs, s.Reps = 512, 8, 3
		s.GFStripeBytes = 1 << 20
	}
	return s
}

// RecoveryBenchResult is the JSON artifact written to
// results/BENCH_recovery.json. Host-clock numbers (MS/US suffixes on
// Plain/Striped/ScanDelta) price the erasure machinery; simulated-
// clock numbers (the *Wall fields) check the degraded scan against
// the cost model. The three booleans are the CI gates.
type RecoveryBenchResult struct {
	GeneratedAt string            `json:"generatedAt"`
	Spec        RecoveryBenchSpec `json:"spec"`

	PlainMS   float64 `json:"plainMS"`   // e2e best-of-Reps, unprotected sharding
	StripedMS float64 `json:"stripedMS"` // e2e best-of-Reps, k+m parity placement

	// ScanDeltaUS is the host-time cost one clean striped scan adds
	// over one unprotected scan (placement lookup, health checks —
	// systematic coding means no GF work on the clean path), from an
	// interleaved microbenchmark. OverheadPct projects it over the
	// run's scans against the plain end-to-end time: the clean-path
	// price of configuring parity. Gate: <= 2%.
	ScanDeltaUS float64 `json:"scanDeltaUS"`
	OverheadPct float64 `json:"overheadPct"`

	// IdenticalTrajectories is true when the clean striped run, the
	// kill-one-device run, and the plain unprotected run all produce
	// bit-identical loss/accuracy trajectories. Gate.
	IdenticalTrajectories bool `json:"identicalTrajectories"`

	// ResumeExact is true when a session checkpointed mid-run and
	// resumed reproduces the uninterrupted trajectory bit for bit. Gate.
	ResumeExact bool `json:"resumeExact"`

	// Simulated-clock degraded-scan measurement: one scan with a lost
	// device against the clean scan plus the modeled reconstruction
	// bound (host probe + parity stripe fetch + GF decode). Gate:
	// DegradedWallUS - CleanWallUS <= BoundUS.
	CleanWallUS         float64 `json:"cleanWallUS"`
	DegradedWallUS      float64 `json:"degradedWallUS"`
	BoundUS             float64 `json:"boundUS"`
	DegradedWithinBound bool    `json:"degradedWithinBound"`

	DevicesLost        int     `json:"devicesLost"`
	DegradedReads      int     `json:"degradedReads"`
	ReconstructedBytes int64   `json:"reconstructedBytes"`
	RebuildSimMS       float64 `json:"rebuildSimMS"` // simulated rebuild wall

	// Host cost of the recovery data path, against its stated bound.
	// The GF figures are MB/s of source streamed (k·stripe bytes per
	// lost stripe, the unit the simulated clock charges at) decoding one
	// and two lost data stripes of a 4+2 code, best of Reps;
	// ModelReconstructMBps is smartssd.DefaultReconstructBW, what the
	// simulated clock assumes. The alloc figures are bytes allocated by
	// one steady-state scan of the spec's striped cluster, clean and
	// with one device lost. Gate: CleanScanAllocBytes ≤
	// RecoveryCleanScanAllocGate.
	ReconstructOneLossMBps float64 `json:"reconstructOneLossMBps"`
	ReconstructTwoLossMBps float64 `json:"reconstructTwoLossMBps"`
	ModelReconstructMBps   float64 `json:"modelReconstructMBps"`
	CleanScanAllocBytes    int64   `json:"cleanScanAllocBytes"`
	DegradedScanAllocBytes int64   `json:"degradedScanAllocBytes"`

	// Previous holds the same figures from the artifact this run
	// overwrote, when that run measured the same spec: the "before" of a
	// before/after pair, recorded by the tool rather than by hand.
	Previous *RecoveryBenchPrevious `json:"previous,omitempty"`
}

// RecoveryBenchPrevious is what a regenerated artifact keeps of the one
// it replaced.
type RecoveryBenchPrevious struct {
	GeneratedAt            string  `json:"generatedAt"`
	StripedMS              float64 `json:"stripedMS"`
	ReconstructOneLossMBps float64 `json:"reconstructOneLossMBps"`
	ReconstructTwoLossMBps float64 `json:"reconstructTwoLossMBps"`
	CleanScanAllocBytes    int64   `json:"cleanScanAllocBytes"`
	DegradedScanAllocBytes int64   `json:"degradedScanAllocBytes"`
}

func recoveryBenchDataSpec(spec RecoveryBenchSpec) data.Spec {
	return data.Spec{
		Name: "recoverybench", Classes: spec.Classes, Train: spec.Train,
		BytesPerImage: spec.BytesPerImage,
		SimTrain:      spec.Train, SimTest: spec.Test, FeatureDim: spec.FeatureDim,
		Spread: 0.15, HardFrac: 0.1, NoiseFrac: 0.02, Seed: 5,
	}
}

func recoveryBenchOptions(spec RecoveryBenchSpec) (trainer.Config, core.Options) {
	cfg := trainer.Default()
	cfg.Epochs = spec.Epochs
	cfg.Hidden = []int{128, 64}
	opt := core.DefaultOptions()
	opt.SelectEvery = 1 // every epoch pays a scan
	opt.SubsetBias = false
	opt.DynamicSizing = false
	opt.Workers = 1
	return cfg, opt
}

// recoveryCluster builds a fresh cluster holding the benchmark dataset
// on DataShards devices, with ParityShards more when striped and as the
// k+0 placement otherwise.
func recoveryCluster(spec RecoveryBenchSpec, striped bool) (*smartssd.Cluster, *data.Dataset, *data.Dataset, error) {
	ds := recoveryBenchDataSpec(spec)
	train, test := data.Generate(ds)
	img, err := data.Encode(train)
	if err != nil {
		return nil, nil, nil, err
	}
	place := smartssd.Placement{DataShards: spec.DataShards}
	if striped {
		place.ParityShards = spec.ParityShards
	}
	c, err := smartssd.NewCluster(place.Total())
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := c.StripeDataset(ds.Name, img, spec.BytesPerImage, place); err != nil {
		return nil, nil, nil, err
	}
	return c, train, test, nil
}

// runClusterOnce executes one cluster-attached training run on a
// fresh cluster and returns the report and host wall time.
func runClusterOnce(spec RecoveryBenchSpec, striped bool, mutate func(*smartssd.Cluster, *core.Options)) (*core.Report, time.Duration, error) {
	c, train, test, err := recoveryCluster(spec, striped)
	if err != nil {
		return nil, 0, err
	}
	cfg, opt := recoveryBenchOptions(spec)
	opt.Cluster = c
	opt.DatasetName = recoveryBenchDataSpec(spec).Name
	if mutate != nil {
		mutate(c, &opt)
	}
	t0 := time.Now()
	rep, err := core.Run(train, test, cfg, opt)
	return rep, time.Since(t0), err
}

// measureClusterPair times the plain-sharded and parity-striped
// configurations interleaved rep by rep, best of Reps each.
func measureClusterPair(spec RecoveryBenchSpec, reps int) (plainMS, stripedMS float64, plainRep, stripedRep *core.Report, err error) {
	if _, _, err = runClusterOnce(spec, false, nil); err != nil { // warm-up
		return 0, 0, nil, nil, err
	}
	if _, _, err = runClusterOnce(spec, true, nil); err != nil {
		return 0, 0, nil, nil, err
	}
	var bestPlain, bestStriped time.Duration
	for i := 0; i < reps; i++ {
		var dt time.Duration
		if plainRep, dt, err = runClusterOnce(spec, false, nil); err != nil {
			return 0, 0, nil, nil, err
		}
		if bestPlain == 0 || dt < bestPlain {
			bestPlain = dt
		}
		if stripedRep, dt, err = runClusterOnce(spec, true, nil); err != nil {
			return 0, 0, nil, nil, err
		}
		if bestStriped == 0 || dt < bestStriped {
			bestStriped = dt
		}
	}
	return float64(bestPlain.Nanoseconds()) / 1e6, float64(bestStriped.Nanoseconds()) / 1e6, plainRep, stripedRep, nil
}

// stripedScanDelta measures the host-time cost a clean striped scan
// adds over a plain scan of the same payload, interleaved batches,
// best of reps.
func stripedScanDelta(spec RecoveryBenchSpec, reps int) (time.Duration, error) {
	name := recoveryBenchDataSpec(spec).Name
	plain, _, _, err := recoveryCluster(spec, false)
	if err != nil {
		return 0, err
	}
	striped, _, _, err := recoveryCluster(spec, true)
	if err != nil {
		return 0, err
	}
	const scans = 32
	batch := func(c *smartssd.Cluster) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < scans; i++ {
			if _, _, _, err := c.ParallelScan(name, spec.BytesPerImage); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	if _, err := batch(plain); err != nil { // warm-up both paths
		return 0, err
	}
	if _, err := batch(striped); err != nil {
		return 0, err
	}
	var bestPlain, bestStriped time.Duration
	for i := 0; i < reps; i++ {
		dt, err := batch(plain)
		if err != nil {
			return 0, err
		}
		if bestPlain == 0 || dt < bestPlain {
			bestPlain = dt
		}
		if dt, err = batch(striped); err != nil {
			return 0, err
		}
		if bestStriped == 0 || dt < bestStriped {
			bestStriped = dt
		}
	}
	delta := (bestStriped - bestPlain) / scans
	if delta < 0 {
		delta = 0
	}
	return delta, nil
}

// gfDecodeMBps times the data-only decode of lost data stripes of a 4+2
// code at the spec's stripe length, the way the cluster runs it (into
// buffers that already exist), and returns MB/s of source streamed,
// best of reps.
func gfDecodeMBps(stripe, lost, reps int) (float64, error) {
	const k, m = 4, 2
	code, err := erasure.New(k, m)
	if err != nil {
		return 0, err
	}
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i] = make([]byte, stripe)
		if i < k {
			for j := range shards[i] {
				shards[i][j] = byte(j*(2*i+3) + j>>8)
			}
		}
	}
	if err := code.Encode(shards); err != nil {
		return 0, err
	}
	work := make([][]byte, k+m)
	var best time.Duration
	for r := 0; r <= reps; r++ { // the first pass warms the tables and pages
		copy(work, shards)
		for i := 0; i < lost; i++ {
			work[i] = work[i][:0]
		}
		t0 := time.Now()
		if err := code.ReconstructData(work); err != nil {
			return 0, err
		}
		if dt := time.Since(t0); r > 0 && (best == 0 || dt < best) {
			best = dt
		}
	}
	return float64(lost*k*stripe) / 1e6 / best.Seconds(), nil
}

// scanAllocBytes reports the bytes one steady-state scan of the spec's
// striped cluster allocates, clean or with device 1 lost. The first
// scan in each state grows the arena and is not counted.
func scanAllocBytes(spec RecoveryBenchSpec, degraded bool) (int64, error) {
	name := recoveryBenchDataSpec(spec).Name
	c, _, _, err := recoveryCluster(spec, true)
	if err != nil {
		return 0, err
	}
	c.Verify = func(b []byte) error { return data.VerifyImage(b, spec.BytesPerImage) }
	scan := func() error {
		_, _, _, err := c.ParallelScan(name, spec.BytesPerImage)
		return err
	}
	if err := scan(); err != nil {
		return 0, err
	}
	if degraded {
		c.SetInjector(faults.NewInjector(faults.Profile{
			Seed:  17,
			Kills: []faults.DeviceKill{{Device: 1, AfterScans: 1}},
		}))
		if err := scan(); err != nil {
			return 0, err
		}
	}
	const scans = 16
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < scans; i++ {
		if err := scan(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc-m0.TotalAlloc) / scans, nil
}

// RunRecoveryBench measures the device-loss recovery machinery: the
// clean-path overhead of parity placement, trajectory identity through
// a whole-device kill, checkpoint/resume exactness, the degraded scan
// against its modeled simulated-time bound, and the host cost of the
// recovery data path (GF decode throughput against the modeled rate,
// bytes allocated per scan).
func RunRecoveryBench(spec RecoveryBenchSpec) (*RecoveryBenchResult, error) {
	res := &RecoveryBenchResult{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Spec:        spec,
	}

	plainMS, stripedMS, plainRep, stripedRep, err := measureClusterPair(spec, spec.Reps)
	if err != nil {
		return nil, fmt.Errorf("overhead measurement: %w", err)
	}
	delta, err := stripedScanDelta(spec, spec.Reps)
	if err != nil {
		return nil, fmt.Errorf("scan-overhead measurement: %w", err)
	}
	res.PlainMS = plainMS
	res.StripedMS = stripedMS
	res.ScanDeltaUS = float64(delta.Nanoseconds()) / 1e3
	// One scan per epoch (SelectEvery=1): project the per-scan delta
	// over the run against the plain end-to-end time.
	scanCostMS := float64(delta.Nanoseconds()) * float64(spec.Epochs) / 1e6
	res.OverheadPct = safeRatio(scanCostMS, plainMS) * 100

	// Kill device 1 mid-run: with k+1 parity the trajectory must not
	// move by a single bit.
	killRep, _, err := runClusterOnce(spec, true, func(c *smartssd.Cluster, o *core.Options) {
		o.Injector = faults.NewInjector(faults.Profile{
			Seed:  17,
			Kills: []faults.DeviceKill{{Device: 1, AfterScans: spec.KillAfterScans}},
		})
	})
	if err != nil {
		return nil, fmt.Errorf("kill-one-device run: %w", err)
	}
	res.DevicesLost = killRep.Recovery.DevicesLost
	res.DegradedReads = killRep.Recovery.DegradedReads
	res.ReconstructedBytes = killRep.Recovery.ReconstructedBytes
	res.IdenticalTrajectories =
		reflect.DeepEqual(stripedRep.Metrics.EpochLoss, killRep.Metrics.EpochLoss) &&
			reflect.DeepEqual(stripedRep.Metrics.EpochAcc, killRep.Metrics.EpochAcc) &&
			reflect.DeepEqual(stripedRep.Metrics.EpochLoss, plainRep.Metrics.EpochLoss) &&
			reflect.DeepEqual(stripedRep.Metrics.EpochAcc, plainRep.Metrics.EpochAcc) &&
			killRep.Recovery.DevicesLost == 1 && killRep.Recovery.DegradedReads > 0

	// Checkpoint halfway, resume, and demand the identical trajectory.
	resumeAt := spec.Epochs / 2
	var blob []byte
	if _, _, err := runClusterOnce(spec, true, func(c *smartssd.Cluster, o *core.Options) {
		o.CheckpointEvery = resumeAt
		o.CheckpointSink = func(epoch int, b []byte) error {
			if epoch == resumeAt {
				blob = append([]byte(nil), b...)
			}
			return nil
		}
	}); err != nil {
		return nil, fmt.Errorf("checkpointed run: %w", err)
	}
	if blob == nil {
		return nil, fmt.Errorf("no checkpoint captured at epoch %d", resumeAt)
	}
	resumedRep, _, err := runClusterOnce(spec, true, func(c *smartssd.Cluster, o *core.Options) {
		o.Resume = blob
	})
	if err != nil {
		return nil, fmt.Errorf("resumed run: %w", err)
	}
	res.ResumeExact = resumedRep.Recovery.ResumedFromEpoch == resumeAt &&
		reflect.DeepEqual(stripedRep.Metrics.EpochLoss, resumedRep.Metrics.EpochLoss) &&
		reflect.DeepEqual(stripedRep.Metrics.EpochAcc, resumedRep.Metrics.EpochAcc)

	// Degraded scan vs the cost model, in simulated time (exact and
	// machine-independent): clean scan, kill, degraded scan, rebuild.
	name := recoveryBenchDataSpec(spec).Name
	c, _, _, err := recoveryCluster(spec, true)
	if err != nil {
		return nil, err
	}
	_, _, cleanWall, err := c.ParallelScan(name, spec.BytesPerImage)
	if err != nil {
		return nil, fmt.Errorf("clean simulated scan: %w", err)
	}
	res.CleanWallUS = float64(cleanWall.Nanoseconds()) / 1e3
	c.SetInjector(faults.NewInjector(faults.Profile{
		Seed:  17,
		Kills: []faults.DeviceKill{{Device: 1, AfterScans: 1}},
	}))
	_, _, degradedWall, err := c.ParallelScan(name, spec.BytesPerImage)
	if err != nil {
		return nil, fmt.Errorf("degraded simulated scan: %w", err)
	}
	res.DegradedWallUS = float64(degradedWall.Nanoseconds()) / 1e3
	bound, err := c.DegradedScanBound(name, 1)
	if err != nil {
		return nil, err
	}
	res.BoundUS = float64(bound.Nanoseconds()) / 1e3
	res.DegradedWithinBound = res.DegradedWallUS-res.CleanWallUS <= res.BoundUS
	spare, err := smartssd.New()
	if err != nil {
		return nil, err
	}
	c.AttachSpare(spare)
	rebuildWall, err := c.Rebuild(name)
	if err != nil {
		return nil, fmt.Errorf("rebuild: %w", err)
	}
	res.RebuildSimMS = float64(rebuildWall.Nanoseconds()) / 1e6

	res.ModelReconstructMBps = smartssd.DefaultReconstructBW / 1e6
	if res.ReconstructOneLossMBps, err = gfDecodeMBps(spec.GFStripeBytes, 1, spec.Reps); err != nil {
		return nil, fmt.Errorf("GF throughput: %w", err)
	}
	if res.ReconstructTwoLossMBps, err = gfDecodeMBps(spec.GFStripeBytes, 2, spec.Reps); err != nil {
		return nil, fmt.Errorf("GF throughput: %w", err)
	}
	if res.CleanScanAllocBytes, err = scanAllocBytes(spec, false); err != nil {
		return nil, fmt.Errorf("clean-scan allocation: %w", err)
	}
	if res.DegradedScanAllocBytes, err = scanAllocBytes(spec, true); err != nil {
		return nil, fmt.Errorf("degraded-scan allocation: %w", err)
	}
	return res, nil
}

// WriteRecoveryBench runs the benchmark and writes the JSON artifact,
// returning both the result and a renderable table.
func WriteRecoveryBench(path string, quick bool) (*RecoveryBenchResult, *Table, error) {
	res, err := RunRecoveryBench(DefaultRecoveryBenchSpec(quick))
	if err != nil {
		return nil, nil, err
	}
	if old, err := os.ReadFile(path); err == nil {
		var prev RecoveryBenchResult
		if json.Unmarshal(old, &prev) == nil && prev.Spec == res.Spec && prev.ReconstructOneLossMBps > 0 {
			res.Previous = &RecoveryBenchPrevious{
				GeneratedAt: prev.GeneratedAt, StripedMS: prev.StripedMS,
				ReconstructOneLossMBps: prev.ReconstructOneLossMBps,
				ReconstructTwoLossMBps: prev.ReconstructTwoLossMBps,
				CleanScanAllocBytes:    prev.CleanScanAllocBytes,
				DegradedScanAllocBytes: prev.DegradedScanAllocBytes,
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return nil, nil, err
	}
	return res, RecoveryBenchTable(res), nil
}

// RecoveryBenchTable renders the measurement as a bench artifact.
func RecoveryBenchTable(res *RecoveryBenchResult) *Table {
	t := &Table{
		ID:    "bench-recovery",
		Title: "Device-loss recovery: parity overhead, degraded scans, checkpointed resume",
		Note: fmt.Sprintf("%d samples × %d epochs over %d+%d drives, best of %d; plain %.1f ms vs striped %.1f ms e2e; parity cost %.1f µs/scan = %.2f%% of the run",
			res.Spec.Train, res.Spec.Epochs, res.Spec.DataShards, res.Spec.ParityShards,
			res.Spec.Reps, res.PlainMS, res.StripedMS, res.ScanDeltaUS, res.OverheadPct),
		Header: []string{"Check", "Value"},
	}
	t.AddRow("identical trajectories (clean / killed / plain)", fmt.Sprintf("%v", res.IdenticalTrajectories))
	t.AddRow("resume reproduces trajectory", fmt.Sprintf("%v", res.ResumeExact))
	t.AddRow("degraded scan within modeled bound", fmt.Sprintf("%v (Δ %.1f µs <= %.1f µs)",
		res.DegradedWithinBound, res.DegradedWallUS-res.CleanWallUS, res.BoundUS))
	t.AddRow("devices lost / degraded reads", fmt.Sprintf("%d / %d", res.DevicesLost, res.DegradedReads))
	t.AddRow("reconstructed bytes", fmt.Sprintf("%d", res.ReconstructedBytes))
	t.AddRow("simulated rebuild wall", fmt.Sprintf("%.2f ms", res.RebuildSimMS))
	t.AddRow("host GF decode, one / two lost stripes (4+2)", fmt.Sprintf("%.0f / %.0f MB/s of source; the simulated clock assumes %.0f",
		res.ReconstructOneLossMBps, res.ReconstructTwoLossMBps, res.ModelReconstructMBps))
	t.AddRow("allocated per steady-state scan, clean / degraded", fmt.Sprintf("%d / %d bytes (clean gate ≤ %d)",
		res.CleanScanAllocBytes, res.DegradedScanAllocBytes, RecoveryCleanScanAllocGate))
	if p := res.Previous; p != nil {
		t.AddRow("the replaced artifact's GF decode / allocation", fmt.Sprintf("%.0f / %.0f MB/s; %d / %d bytes (%s)",
			p.ReconstructOneLossMBps, p.ReconstructTwoLossMBps, p.CleanScanAllocBytes, p.DegradedScanAllocBytes, p.GeneratedAt))
	}
	return t
}
