package bench

import (
	"fmt"
	"time"

	"nessa/internal/bench/e2e"
	"nessa/internal/core"
	"nessa/internal/data"
	"nessa/internal/erasure"
	"nessa/internal/faults"
	"nessa/internal/smartssd"
)

// RecoveryBenchSpec fixes the workload of the device-loss recovery
// benchmark: end-to-end cluster training runs with and without parity
// placement (the clean-path price of erasure coding), a kill-one-
// device run that must stay bit-identical, a checkpointed run that
// must resume exactly, and a simulated-time degraded-scan measurement
// against the modeled reconstruction bound.
type RecoveryBenchSpec struct {
	deviceRunSpec

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
// striped scan may allocate. A clean stripe is a view of the bytes its
// drive stores, so what is left is slice headers; the quick spec's
// stripes are 87 KB, so a single stray stripe copy trips it.
const RecoveryCleanScanAllocGate = 64 << 10

// DefaultRecoveryBenchSpec mirrors the fault benchmark's sizing —
// training compute dominates the scan, the regime where the clean-path
// overhead gate is honest — with the paper-scale k+1 placement.
func DefaultRecoveryBenchSpec(quick bool) RecoveryBenchSpec {
	s := RecoveryBenchSpec{
		deviceRunSpec: defaultDeviceRunSpec(quick),
		DataShards:    3, ParityShards: 1, KillAfterScans: 3,
		GFStripeBytes: 4 << 20,
	}
	if quick {
		s.Reps, s.GFStripeBytes = 3, 1<<20
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

	// One clean striped scan over one unprotected scan (placement
	// lookup, health checks — systematic coding means no GF work on the
	// clean path), against PlainMS. Gate.
	scanOverhead

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

// recoveryCluster builds a fresh cluster holding the benchmark dataset
// on DataShards devices, with ParityShards more when striped and as the
// k+0 placement otherwise.
func recoveryCluster(spec RecoveryBenchSpec, striped bool) (*smartssd.Cluster, *data.Dataset, *data.Dataset, error) {
	train, test, img, err := spec.image()
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
	if _, err := c.StripeDataset(deviceRunDataset, img, spec.BytesPerImage, place); err != nil {
		return nil, nil, nil, err
	}
	return c, train, test, nil
}

// runClusterOnce executes one cluster-attached training run on a
// fresh cluster and returns the report and host wall time.
func runClusterOnce(spec RecoveryBenchSpec, striped bool, mutate func(*core.Options)) (*core.Report, time.Duration, error) {
	c, train, test, err := recoveryCluster(spec, striped)
	if err != nil {
		return nil, 0, err
	}
	return spec.run(train, test, func(o *core.Options) { o.Cluster = c }, mutate)
}

// stripedScanDelta measures the host-time cost a clean striped scan
// adds over a plain scan of the same payload.
func stripedScanDelta(spec RecoveryBenchSpec) (time.Duration, error) {
	plain, _, _, err := recoveryCluster(spec, false)
	if err != nil {
		return 0, err
	}
	striped, _, _, err := recoveryCluster(spec, true)
	if err != nil {
		return 0, err
	}
	scan := func(c *smartssd.Cluster) func() error {
		return func() error {
			_, _, _, err := c.ParallelScan(deviceRunDataset, spec.BytesPerImage)
			return err
		}
	}
	return perCallDelta(spec.Reps, scan(plain), scan(striped))
}

// killDevice1After scripts the whole-device loss every degraded
// measurement uses: device 1 dies once it has completed that many scans.
func killDevice1After(scans int64) *faults.Injector {
	return faults.NewInjector(faults.Profile{Seed: 17, Kills: []faults.DeviceKill{{Device: 1, AfterScans: scans}}})
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
// scan in each state is not counted: a degraded one grows the arena.
func scanAllocBytes(spec RecoveryBenchSpec, degraded bool) (int64, error) {
	c, _, _, err := recoveryCluster(spec, true)
	if err != nil {
		return 0, err
	}
	c.Verify = func(b []byte) error { return data.VerifyImage(b, spec.BytesPerImage) }
	scan := func() error {
		_, _, _, err := c.ParallelScan(deviceRunDataset, spec.BytesPerImage)
		return err
	}
	if err := scan(); err != nil {
		return 0, err
	}
	if degraded {
		c.SetInjector(killDevice1After(1))
		if err := scan(); err != nil {
			return 0, err
		}
	}
	return allocBytesPerCall(16, scan)
}

// RunRecoveryBench measures the device-loss recovery machinery: the
// clean-path overhead of parity placement, trajectory identity through
// a whole-device kill, checkpoint/resume exactness, the degraded scan
// against its modeled simulated-time bound, and the host cost of the
// recovery data path (GF decode throughput against the modeled rate,
// bytes allocated per scan).
func RunRecoveryBench(spec RecoveryBenchSpec) (*RecoveryBenchResult, []Gate, error) {
	res := &RecoveryBenchResult{GeneratedAt: stamp(), Spec: spec}

	var plainRep, stripedRep *core.Report
	plainBest, stripedBest, err := bestOfInterleaved(spec.Reps,
		keepReport(&plainRep, func() (*core.Report, time.Duration, error) { return runClusterOnce(spec, false, nil) }),
		keepReport(&stripedRep, func() (*core.Report, time.Duration, error) { return runClusterOnce(spec, true, nil) }))
	if err != nil {
		return nil, nil, fmt.Errorf("overhead measurement: %w", err)
	}
	delta, err := stripedScanDelta(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("scan-overhead measurement: %w", err)
	}
	res.PlainMS = ms(plainBest)
	res.StripedMS = ms(stripedBest)
	res.scanOverhead = spec.scanOverhead(delta, plainBest)
	clean := e2e.SeriesOf(stripedRep)

	// Kill device 1 mid-run: with k+1 parity the trajectory must not
	// move by a single bit.
	killRep, _, err := runClusterOnce(spec, true, func(o *core.Options) {
		o.Injector = killDevice1After(spec.KillAfterScans)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("kill-one-device run: %w", err)
	}
	res.DevicesLost = killRep.Recovery.DevicesLost
	res.DegradedReads = killRep.Recovery.DegradedReads
	res.ReconstructedBytes = killRep.Recovery.ReconstructedBytes
	res.IdenticalTrajectories = clean.Equal(e2e.SeriesOf(killRep)) && clean.Equal(e2e.SeriesOf(plainRep)) &&
		killRep.Recovery.DevicesLost == 1 && killRep.Recovery.DegradedReads > 0

	// Checkpoint halfway, resume, and demand the identical trajectory.
	resumeAt := spec.Epochs / 2
	var blob []byte
	if _, _, err := runClusterOnce(spec, true, func(o *core.Options) {
		o.CheckpointEvery = resumeAt
		o.CheckpointSink = func(epoch int, b []byte) error {
			if epoch == resumeAt {
				blob = append([]byte(nil), b...)
			}
			return nil
		}
	}); err != nil {
		return nil, nil, fmt.Errorf("checkpointed run: %w", err)
	}
	if blob == nil {
		return nil, nil, fmt.Errorf("no checkpoint captured at epoch %d", resumeAt)
	}
	resumedRep, _, err := runClusterOnce(spec, true, func(o *core.Options) {
		o.Resume = blob
	})
	if err != nil {
		return nil, nil, fmt.Errorf("resumed run: %w", err)
	}
	res.ResumeExact = resumedRep.Recovery.ResumedFromEpoch == resumeAt && clean.Equal(e2e.SeriesOf(resumedRep))

	// Degraded scan vs the cost model, in simulated time (exact and
	// machine-independent): clean scan, kill, degraded scan, rebuild.
	c, _, _, err := recoveryCluster(spec, true)
	if err != nil {
		return nil, nil, err
	}
	_, _, cleanWall, err := c.ParallelScan(deviceRunDataset, spec.BytesPerImage)
	if err != nil {
		return nil, nil, fmt.Errorf("clean simulated scan: %w", err)
	}
	res.CleanWallUS = us(cleanWall)
	c.SetInjector(killDevice1After(1))
	_, _, degradedWall, err := c.ParallelScan(deviceRunDataset, spec.BytesPerImage)
	if err != nil {
		return nil, nil, fmt.Errorf("degraded simulated scan: %w", err)
	}
	res.DegradedWallUS = us(degradedWall)
	bound, err := c.DegradedScanBound(deviceRunDataset, 1)
	if err != nil {
		return nil, nil, err
	}
	res.BoundUS = us(bound)
	res.DegradedWithinBound = res.DegradedWallUS-res.CleanWallUS <= res.BoundUS
	spare, err := smartssd.New()
	if err != nil {
		return nil, nil, err
	}
	c.AttachSpare(spare)
	rebuildWall, err := c.Rebuild(deviceRunDataset)
	if err != nil {
		return nil, nil, fmt.Errorf("rebuild: %w", err)
	}
	res.RebuildSimMS = ms(rebuildWall)

	res.ModelReconstructMBps = smartssd.DefaultReconstructBW / 1e6
	if res.ReconstructOneLossMBps, err = gfDecodeMBps(spec.GFStripeBytes, 1, spec.Reps); err != nil {
		return nil, nil, fmt.Errorf("GF throughput: %w", err)
	}
	if res.ReconstructTwoLossMBps, err = gfDecodeMBps(spec.GFStripeBytes, 2, spec.Reps); err != nil {
		return nil, nil, fmt.Errorf("GF throughput: %w", err)
	}
	if res.CleanScanAllocBytes, err = scanAllocBytes(spec, false); err != nil {
		return nil, nil, fmt.Errorf("clean-scan allocation: %w", err)
	}
	if res.DegradedScanAllocBytes, err = scanAllocBytes(spec, true); err != nil {
		return nil, nil, fmt.Errorf("degraded-scan allocation: %w", err)
	}
	return res, []Gate{
		{Name: "clean, kill-one-device and plain trajectories identical", OK: res.IdenticalTrajectories},
		{Name: "checkpointed session resumes bit-identically", OK: res.ResumeExact},
		{Name: "degraded scan within the modeled reconstruction bound", OK: res.DegradedWithinBound,
			Detail: fmt.Sprintf("Δ %.1f µs against %.1f µs", res.DegradedWallUS-res.CleanWallUS, res.BoundUS)},
		res.scanOverhead.gate("parity placement"),
		{Name: fmt.Sprintf("steady-state clean striped scan allocates ≤ %d bytes (clean payloads are views of the stored stripes)", RecoveryCleanScanAllocGate),
			OK: res.CleanScanAllocBytes <= RecoveryCleanScanAllocGate, Detail: fmt.Sprintf("%d bytes", res.CleanScanAllocBytes)},
	}, nil
}

// carryRecovery keeps the replaced artifact's figures when it measured
// the same spec.
func carryRecovery(res, prev *RecoveryBenchResult) {
	if prev.Spec == res.Spec && prev.ReconstructOneLossMBps > 0 {
		res.Previous = &RecoveryBenchPrevious{
			GeneratedAt: prev.GeneratedAt, StripedMS: prev.StripedMS,
			ReconstructOneLossMBps: prev.ReconstructOneLossMBps,
			ReconstructTwoLossMBps: prev.ReconstructTwoLossMBps,
			CleanScanAllocBytes:    prev.CleanScanAllocBytes,
			DegradedScanAllocBytes: prev.DegradedScanAllocBytes,
		}
	}
}

// recoveryBenchTable renders the measurement as a bench artifact.
func recoveryBenchTable(res *RecoveryBenchResult) *Table {
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
