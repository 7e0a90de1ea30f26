package bench

import (
	"fmt"
	"time"

	"nessa/internal/bench/e2e"
	"nessa/internal/core"
	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/smartssd"
	"nessa/internal/trainer"
)

// deviceRunSpec is the workload the fault and recovery benchmarks
// share: an end-to-end storage-attached training run sized so per-epoch
// training compute dominates the scan, as it does at paper scale — the
// honest regime for pricing what rides on every candidate scan.
type deviceRunSpec struct {
	Classes       int   `json:"classes"`
	Train         int   `json:"train"`
	Test          int   `json:"test"`
	FeatureDim    int   `json:"featureDim"`
	BytesPerImage int64 `json:"bytesPerImage"`
	Epochs        int   `json:"epochs"`
	Reps          int   `json:"reps"` // timing repetitions (best-of)
}

func defaultDeviceRunSpec(quick bool) deviceRunSpec {
	s := deviceRunSpec{
		Classes: 10, Train: 1024, Test: 128, FeatureDim: 64,
		BytesPerImage: 512, Epochs: 10, Reps: 5,
	}
	if quick {
		s.Train, s.Epochs = 512, 8
	}
	return s
}

// deviceRunDataset names the stored object of every such run.
const deviceRunDataset = "devicebench"

// image generates the run's dataset and the record image a device or
// cluster stores.
func (s deviceRunSpec) image() (train, test *data.Dataset, img []byte, err error) {
	train, test = data.Generate(data.Spec{
		Name: deviceRunDataset, Classes: s.Classes, Train: s.Train,
		BytesPerImage: s.BytesPerImage,
		SimTrain:      s.Train, SimTest: s.Test, FeatureDim: s.FeatureDim,
		Spread: 0.15, HardFrac: 0.1, NoiseFrac: 0.02, Seed: 5,
	})
	img, err = data.Encode(train)
	return train, test, img, err
}

// run executes one training run against the storage attach wires in
// and returns the report and host wall time. The controller selects
// every epoch (so every epoch pays a scan), runs serial workers (so the
// timing is scheduler-noise-free) and trains wider hidden layers so
// compute dominates as it does at paper scale; mutate, when given,
// adjusts the options last.
func (s deviceRunSpec) run(train, test *data.Dataset, attach, mutate func(*core.Options)) (*core.Report, time.Duration, error) {
	cfg := trainer.Default()
	cfg.Epochs = s.Epochs
	cfg.Hidden = []int{128, 64}
	opt := core.DefaultOptions()
	opt.SelectEvery = 1
	opt.SubsetBias = false
	opt.DynamicSizing = false
	opt.Workers = 1
	opt.DatasetName = deviceRunDataset
	attach(&opt)
	if mutate != nil {
		mutate(&opt)
	}
	t0 := time.Now()
	rep, err := core.Run(train, test, cfg, opt)
	return rep, time.Since(t0), err
}

// scanOverhead is the clean-path price of the machinery under test
// (CRC verify + recovery hooks; parity placement). ScanDeltaUS is the
// host-time cost one scan through it adds over one scan without it, from
// an interleaved high-repetition microbenchmark (perCallDelta).
// OverheadPct projects that delta over the run's scans (one per epoch,
// SelectEvery=1) against the baseline end-to-end time; the microbenchmark
// numerator keeps the gate stable where a difference of two noisy
// end-to-end timings would not be.
type scanOverhead struct {
	ScanDeltaUS float64 `json:"scanDeltaUS"`
	OverheadPct float64 `json:"overheadPct"`
}

func (s deviceRunSpec) scanOverhead(delta, base time.Duration) scanOverhead {
	return scanOverhead{us(delta), safeRatio(ms(delta)*float64(s.Epochs), ms(base)) * 100}
}

// cleanPathOverheadGatePct bounds OverheadPct for both benchmarks.
const cleanPathOverheadGatePct = 2

func (o scanOverhead) gate(of string) Gate {
	return Gate{Name: fmt.Sprintf("clean-path overhead of %s ≤ %d %%", of, cleanPathOverheadGatePct),
		OK: o.OverheadPct <= cleanPathOverheadGatePct, Detail: fmt.Sprintf("%.2f %%", o.OverheadPct)}
}

// FaultBenchSpec fixes the workload of the fault-tolerance benchmark:
// the shared run timed with the raw scan path (the pre-fault-tolerance
// pipeline) versus the resilient scan path (per-record CRC verify +
// recovery loop), plus chaos-profile completion runs.
type FaultBenchSpec struct {
	deviceRunSpec
	ChaosSeeds []uint64 `json:"chaosSeeds"`
}

func DefaultFaultBenchSpec(quick bool) FaultBenchSpec {
	s := FaultBenchSpec{deviceRunSpec: defaultDeviceRunSpec(quick), ChaosSeeds: []uint64{40, 41, 45}}
	if quick {
		s.ChaosSeeds = s.ChaosSeeds[:2]
	}
	return s
}

// ChaosRun records one chaos-profile completion run.
type ChaosRun struct {
	Seed           uint64           `json:"seed"`
	Completed      bool             `json:"completed"`
	Epochs         int              `json:"epochs"`
	Retries        int              `json:"retries"`
	Transient      int              `json:"transient"`
	CorruptCaught  int              `json:"corruptCaught"`
	HostFallbacks  int              `json:"hostFallbacks"`
	FallbackEpochs int              `json:"fallbackEpochs"`
	Injected       map[string]int64 `json:"injected"`
}

// FaultBenchResult is the JSON artifact written to
// results/BENCH_faults.json: the clean-path cost of the fault-tolerance
// machinery and the pipeline's behaviour under the standard chaos
// profile.
type FaultBenchResult struct {
	GeneratedAt string         `json:"generatedAt"`
	Spec        FaultBenchSpec `json:"spec"`

	RawMS       float64 `json:"rawMS"`       // end-to-end best-of-Reps, RawScan path
	ResilientMS float64 `json:"resilientMS"` // end-to-end best-of-Reps, CRC + recovery loop

	scanOverhead // one clean resilient scan over one raw scan, against RawMS

	// IdenticalTrajectories is true when the raw path, the resilient
	// path, and the resilient path with a zero-rate injector attached
	// all produce bit-identical loss/accuracy trajectories.
	IdenticalTrajectories bool `json:"identicalTrajectories"`

	ChaosRuns     []ChaosRun `json:"chaosRuns"`
	ChaosAllDone  bool       `json:"chaosAllDone"`
	CleanFallback int        `json:"cleanFallback"` // fallback epochs on the clean path (must be 0)
}

// faultDevice stores the run's dataset on a fresh device.
func faultDevice(spec FaultBenchSpec) (dev *smartssd.Device, train, test *data.Dataset, length int64, err error) {
	train, test, img, err := spec.image()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if dev, err = smartssd.New(); err != nil {
		return nil, nil, nil, 0, err
	}
	return dev, train, test, int64(len(img)), dev.StoreDataset(deviceRunDataset, img)
}

// runOnce executes one device-attached training run on a fresh device
// and returns the report and wall time.
func runOnce(spec FaultBenchSpec, mutate func(*core.Options)) (*core.Report, time.Duration, error) {
	dev, train, test, _, err := faultDevice(spec)
	if err != nil {
		return nil, 0, err
	}
	return spec.run(train, test, func(o *core.Options) { o.Device = dev }, mutate)
}

// scanDelta measures the per-scan cost the resilience machinery adds
// on the clean path. Both reads run the one recovery loop, the raw one
// under the one-attempt policy with no verify, so on a clean scan the
// delta is the per-record CRC verification alone.
func scanDelta(spec FaultBenchSpec) (time.Duration, error) {
	dev, _, _, length, err := faultDevice(spec)
	if err != nil {
		return 0, err
	}
	rec := spec.BytesPerImage
	n := int(length / rec)
	verify := func(b []byte) error { return data.VerifyImage(b, rec) }
	return perCallDelta(spec.Reps, func() error {
		_, _, err := dev.ReadResilient(deviceRunDataset, 0, length, n, nil, smartssd.RetryPolicy{MaxAttempts: 1})
		return err
	}, func() error {
		_, _, err := dev.ReadResilient(deviceRunDataset, 0, length, n, verify, smartssd.RetryPolicy{})
		return err
	})
}

// RunFaultBench measures the fault-tolerance machinery three ways:
// clean-path overhead (raw vs resilient scan, best-of-Reps), the
// trajectory-identity guarantee, and completion under the standard
// chaos profile.
func RunFaultBench(spec FaultBenchSpec) (*FaultBenchResult, []Gate, error) {
	res := &FaultBenchResult{GeneratedAt: stamp(), Spec: spec}

	var rawRep, resRep *core.Report
	rawBest, resBest, err := bestOfInterleaved(spec.Reps,
		keepReport(&rawRep, func() (*core.Report, time.Duration, error) {
			return runOnce(spec, func(o *core.Options) { o.RawScan = true })
		}),
		keepReport(&resRep, func() (*core.Report, time.Duration, error) { return runOnce(spec, nil) }))
	if err != nil {
		return nil, nil, fmt.Errorf("overhead measurement: %w", err)
	}
	zeroRep, _, err := runOnce(spec, func(o *core.Options) {
		o.Injector = faults.NewInjector(faults.Profile{Seed: 99})
	})
	if err != nil {
		return nil, nil, fmt.Errorf("zero-rate-injector run: %w", err)
	}
	delta, err := scanDelta(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("scan-overhead measurement: %w", err)
	}

	res.RawMS = ms(rawBest)
	res.ResilientMS = ms(resBest)
	res.scanOverhead = spec.scanOverhead(delta, rawBest)
	raw := e2e.SeriesOf(rawRep)
	res.IdenticalTrajectories = raw.Equal(e2e.SeriesOf(resRep)) && raw.Equal(e2e.SeriesOf(zeroRep))
	res.CleanFallback = resRep.Faults.FallbackEpochs + zeroRep.Faults.FallbackEpochs

	res.ChaosAllDone = true
	for _, seed := range spec.ChaosSeeds {
		p := faults.DefaultChaosProfile()
		p.Seed = seed
		rep, _, err := runOnce(spec, func(o *core.Options) {
			o.Injector = faults.NewInjector(p)
		})
		run := ChaosRun{Seed: seed}
		if err != nil {
			res.ChaosAllDone = false
		} else {
			run.Completed = true
			run.Epochs = len(rep.Metrics.EpochLoss)
			run.Retries = rep.Faults.Retries
			run.Transient = rep.Faults.TransientErrors
			run.CorruptCaught = rep.Faults.CorruptDetected
			run.HostFallbacks = rep.Faults.HostFallbacks
			run.FallbackEpochs = rep.Faults.FallbackEpochs
			run.Injected = map[string]int64{}
			for c, n := range rep.Faults.Injected {
				run.Injected[string(c)] = n
			}
			if run.Epochs != spec.Epochs {
				res.ChaosAllDone = false
			}
		}
		res.ChaosRuns = append(res.ChaosRuns, run)
	}
	return res, []Gate{
		res.scanOverhead.gate("the resilient scan"),
		{Name: "raw, resilient and zero-rate-injector trajectories identical", OK: res.IdenticalTrajectories},
		{Name: "every chaos-profile run completes all epochs", OK: res.ChaosAllDone},
		{Name: "no fallback epoch on the clean path", OK: res.CleanFallback == 0, Detail: fmt.Sprintf("%d", res.CleanFallback)},
	}, nil
}

// faultBenchTable renders the measurement as a bench artifact.
func faultBenchTable(res *FaultBenchResult) *Table {
	t := &Table{
		ID:    "bench-faults",
		Title: "Fault tolerance: clean-path overhead and chaos-profile resilience",
		Note: fmt.Sprintf("%d samples × %d epochs, best of %d; raw %.1f ms vs resilient %.1f ms e2e; CRC+hook cost %.1f µs/scan = %.2f%% of the run; identical trajectories: %v",
			res.Spec.Train, res.Spec.Epochs, res.Spec.Reps, res.RawMS, res.ResilientMS, res.ScanDeltaUS, res.OverheadPct, res.IdenticalTrajectories),
		Header: []string{"Chaos seed", "Completed", "Epochs", "Retries", "Corrupt caught", "Host fallbacks", "Fallback epochs"},
	}
	for _, r := range res.ChaosRuns {
		t.AddRow(fmt.Sprintf("%d", r.Seed),
			fmt.Sprintf("%v", r.Completed),
			fmt.Sprintf("%d", r.Epochs),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.CorruptCaught),
			fmt.Sprintf("%d", r.HostFallbacks),
			fmt.Sprintf("%d", r.FallbackEpochs))
	}
	return t
}
