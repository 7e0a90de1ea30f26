package core

import (
	"reflect"
	"testing"

	"nessa/internal/faults"
)

// Chaos end-to-end tests: the full storage → selection → training
// pipeline under the standard fault profile (every fault class active
// at once) must complete, account for its recoveries, and — with
// faults disabled — produce a trajectory bit-identical to the raw
// pre-fault-tolerance path.

func TestChaosRunCompletes(t *testing.T) {
	for _, seed := range []uint64{40, 41, 45} {
		tr, te, dev := faultRig(t)
		opt := tinyOptions()
		opt.Device = dev
		opt.DatasetName = "ds"
		p := faults.DefaultChaosProfile()
		p.Seed = seed
		opt.Injector = faults.NewInjector(p)
		cfg := tinyCfg()
		rep, err := Run(tr, te, cfg, opt)
		if err != nil {
			t.Fatalf("seed %d: chaos run failed: %v", seed, err)
		}
		if got := len(rep.Metrics.EpochLoss); got != cfg.Epochs {
			t.Fatalf("seed %d: trained %d epochs, want %d", seed, got, cfg.Epochs)
		}
		f := rep.Faults
		if f.Retries == 0 {
			t.Errorf("seed %d: chaos run absorbed no retries", seed)
		}
		var injected int64
		for _, n := range f.Injected {
			injected += n
		}
		if injected == 0 {
			t.Errorf("seed %d: injector fired no faults under the chaos profile", seed)
		}
		// Every injected transient must be visible as an absorbed one —
		// the detection layer may not lose errors.
		if f.TransientErrors != int(f.Injected[faults.ClassTransient]) {
			t.Errorf("seed %d: absorbed %d transients, injector fired %d",
				seed, f.TransientErrors, f.Injected[faults.ClassTransient])
		}
	}
}

func TestChaosRunDeterministic(t *testing.T) {
	run := func() (*Report, error) {
		tr, te, dev := faultRig(t)
		opt := tinyOptions()
		opt.Device = dev
		opt.DatasetName = "ds"
		p := faults.DefaultChaosProfile()
		p.Seed = 41
		opt.Injector = faults.NewInjector(p)
		return Run(tr, te, tinyCfg(), opt)
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Metrics.EpochLoss, b.Metrics.EpochLoss) {
		t.Fatal("identical chaos runs diverged in loss trajectory")
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Fatalf("identical chaos runs diverged in fault accounting:\n%+v\n%+v", a.Faults, b.Faults)
	}
}

// TestNoFaultTrajectoryBitIdentical pins the determinism guarantee of
// §4.6: the resilient scan path with no injector (the matrix's clean
// device cell), with a zero-rate injector, and the raw
// pre-fault-tolerance path (RawScan, on a device and on a cluster) all
// produce exactly the same training trajectory. The recovery machinery is free on the clean path
// in the only sense that matters for reproducing the paper: it cannot
// perturb results.
func TestNoFaultTrajectoryBitIdentical(t *testing.T) {
	run := func(mutate func(*Options)) *Report {
		tr, te, dev := faultRig(t)
		opt := matrixOptions("batch", 1)
		opt.Device = dev
		opt.DatasetName = "ds"
		mutate(&opt)
		rep, err := Run(tr, te, matrixCfg("batch"), opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	resilient := runCell(t, "batch/device/w1/clean").rep
	zeroRate := run(func(o *Options) { o.Injector = faults.NewInjector(faults.Profile{Seed: 99}) })
	raw := run(func(o *Options) { o.RawScan = true })

	if !reflect.DeepEqual(resilient.Metrics.EpochLoss, raw.Metrics.EpochLoss) ||
		!reflect.DeepEqual(resilient.Metrics.EpochAcc, raw.Metrics.EpochAcc) {
		t.Fatal("resilient clean path diverged from the raw scan path")
	}
	if !reflect.DeepEqual(resilient.Metrics.EpochLoss, zeroRate.Metrics.EpochLoss) ||
		!reflect.DeepEqual(resilient.Metrics.EpochAcc, zeroRate.Metrics.EpochAcc) {
		t.Fatal("zero-rate injector perturbed the trajectory")
	}
	checkCondition(t, "batch/device/w1/clean", resilient)

	// A raw cluster scan skips the stripes' CRC verify, nothing else.
	tr, te, c := clusterRig(t, 4, 2)
	opt := matrixOptions("batch", 1)
	opt.Cluster, opt.DatasetName, opt.RawScan = c, "ds", true
	rawCluster, err := Run(tr, te, matrixCfg("batch"), opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, "raw vs resilient cluster", runCell(t, "batch/cluster/w1/clean").rep, rawCluster)
}
