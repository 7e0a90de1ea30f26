package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/smartssd"
)

// Device-loss recovery end-to-end tests (§4.11): erasure-coded
// placement keeps the training trajectory bit-identical through a
// whole-device loss, and checkpointed sessions resume exactly.

// clusterRig builds a k-data + m-parity cluster with the tiny dataset
// striped onto it.
func clusterRig(t *testing.T, dataShards, parityShards int) (*data.Dataset, *data.Dataset, *smartssd.Cluster) {
	t.Helper()
	spec := tinySpec()
	tr, te := data.Generate(spec)
	c, err := smartssd.NewCluster(dataShards + parityShards)
	if err != nil {
		t.Fatal(err)
	}
	img, err := data.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StripeDataset("ds", img, spec.BytesPerImage, smartssd.Placement{
		DataShards: dataShards, ParityShards: parityShards,
	}); err != nil {
		t.Fatal(err)
	}
	return tr, te, c
}

func clusterOptions(c *smartssd.Cluster) Options {
	opt := tinyOptions()
	opt.Cluster = c
	opt.DatasetName = "ds"
	return opt
}

// assertSameTrajectory fails unless both reports trained identical
// epochs: same losses, accuracies, and subset sizes, bit for bit.
func assertSameTrajectory(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if !reflect.DeepEqual(a.Metrics.EpochLoss, b.Metrics.EpochLoss) {
		t.Errorf("%s: epoch losses diverge", label)
	}
	if !reflect.DeepEqual(a.Metrics.EpochAcc, b.Metrics.EpochAcc) {
		t.Errorf("%s: epoch accuracies diverge", label)
	}
	if !reflect.DeepEqual(a.Metrics.SubsetSizes, b.Metrics.SubsetSizes) {
		t.Errorf("%s: subset sizes diverge", label)
	}
	if !reflect.DeepEqual(a.EpochSubsetFrac, b.EpochSubsetFrac) {
		t.Errorf("%s: subset fractions diverge", label)
	}
}

// TestClusterRunMatchesDevicelessRun: parity configured but no fault —
// the striped scan must not disturb the trajectory, and nothing may be
// reconstructed (checkCondition's clean case).
func TestClusterRunMatchesDevicelessRun(t *testing.T) {
	plain := runCell(t, "batch/none/w1/clean")
	rep := runCell(t, "batch/cluster/w1/clean")
	assertSameTrajectory(t, "cluster vs deviceless", plain.rep, rep.rep)
	checkCondition(t, "batch/cluster/w1/clean", rep.rep)
}

// TestKillOneDeviceMidRunBitIdentical: device 1 of the 4+2 placement
// dies permanently after its third completed scan — mid-reselection-
// schedule, well inside the run — and parity reconstruction keeps the
// trajectory bit-identical to the clean run.
func TestKillOneDeviceMidRunBitIdentical(t *testing.T) {
	clean := runCell(t, "batch/cluster/w1/clean")
	killed := runCell(t, "batch/cluster/w1/kill")
	assertSameTrajectory(t, "killed vs clean", clean.rep, killed.rep)
	checkCondition(t, "batch/cluster/w1/kill", killed.rep)
}

func TestAutoRebuildStopsDegradedReads(t *testing.T) {
	tr, te, c := clusterRig(t, 3, 1)
	spare, err := smartssd.New()
	if err != nil {
		t.Fatal(err)
	}
	c.AttachSpare(spare)
	opt := clusterOptions(c)
	opt.AutoRebuild = true
	opt.Injector = faults.NewInjector(faults.Profile{
		Seed:  9,
		Kills: []faults.DeviceKill{{Device: 1, AfterScans: 3}},
	})
	rep, err := Run(tr, te, tinyCfg(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery.RebuildTime <= 0 {
		t.Fatal("auto-rebuild never ran")
	}
	// The first degraded scan triggers the rebuild; every later scan
	// runs on the restored group.
	if rep.Recovery.DegradedReads != 1 {
		t.Fatalf("DegradedReads = %d, want exactly 1 before the rebuild", rep.Recovery.DegradedReads)
	}
	if c.Spares() != 0 {
		t.Fatal("spare not consumed by the rebuild")
	}
	if got := c.DeviceHealth(1); got != smartssd.HealthHealthy {
		t.Fatalf("rebuilt slot health = %v, want healthy", got)
	}
}

func TestDoubleLossBeyondParityIsFatal(t *testing.T) {
	tr, te, c := clusterRig(t, 3, 1)
	opt := clusterOptions(c)
	opt.Injector = faults.NewInjector(faults.Profile{
		Seed: 9,
		Kills: []faults.DeviceKill{
			{Device: 0, AfterScans: 2},
			{Device: 2, AfterScans: 2},
		},
	})
	_, err := Run(tr, te, tinyCfg(), opt)
	if !errors.Is(err, faults.ErrDeviceLost) {
		t.Fatalf("err = %v, want wrapped faults.ErrDeviceLost (two losses, one parity)", err)
	}
}

// TestCheckpointResumeBitIdentical: the matrix's clean cell checkpoints
// every batchResumeAt epochs and its resume cell restarts from the
// mid-run blob. Checkpointing is observation only, and the resumed
// session replays epochs [batchResumeAt, Epochs) exactly: the whole
// trajectory — carried prefix plus recomputed suffix — is bit-identical
// to the uninterrupted run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := matrixCfg("batch")
	full, err := Run(tr, te, cfg, matrixOptions("batch", 1))
	if err != nil {
		t.Fatal(err)
	}
	chk := runCell(t, "batch/none/w1/clean")
	assertSameTrajectory(t, "checkpointing vs plain", full, chk.rep)
	rep := runCell(t, "batch/none/w1/resume").rep
	checkCondition(t, "batch/none/w1/resume", rep)
	assertSameTrajectory(t, "resumed vs uninterrupted", full, rep)
	if len(rep.Metrics.EpochLoss) != cfg.Epochs {
		t.Fatalf("resumed report holds %d epochs, want %d", len(rep.Metrics.EpochLoss), cfg.Epochs)
	}
	if rep.CandidatesLeft != full.CandidatesLeft || rep.Dropped != full.Dropped {
		t.Fatalf("pool bookkeeping diverged: %d/%d vs %d/%d",
			rep.CandidatesLeft, rep.Dropped, full.CandidatesLeft, full.Dropped)
	}
}

func TestResumeRejectsCorruptCheckpoints(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()
	var blob []byte
	opt := tinyOptions()
	opt.CheckpointSink = func(epoch int, b []byte) error {
		blob = append([]byte(nil), b...)
		return nil
	}
	if _, err := Run(tr, te, cfg, opt); err != nil {
		t.Fatal(err)
	}

	corrupt := func(mutate func([]byte)) Options {
		bad := append([]byte(nil), blob...)
		mutate(bad)
		o := tinyOptions()
		o.Resume = bad
		return o
	}
	cases := []struct {
		name string
		opt  Options
	}{
		{"bad magic", corrupt(func(b []byte) { b[0] ^= 0xff })},
		{"bad version", corrupt(func(b []byte) { b[4] = 99 })},
		{"truncated", func() Options {
			o := tinyOptions()
			o.Resume = blob[:len(blob)/2]
			return o
		}()},
		{"trailing bytes", func() Options {
			o := tinyOptions()
			o.Resume = append(append([]byte(nil), blob...), 0)
			return o
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tr, te, cfg, tc.opt); err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
		})
	}

	// A checkpoint from a different loss-history window is a config
	// mismatch, not a corruption — still rejected.
	o := tinyOptions()
	o.BiasWindow = 4
	o.Resume = blob
	if _, err := Run(tr, te, cfg, o); err == nil {
		t.Fatal("checkpoint restored under a mismatched configuration")
	}
}

// TestClusterChaosMixedInjectors is the cluster chaos drill: one
// device stalls, one corrupts payloads, one dies outright — all at
// once, each on its own seeded schedule. The run must complete every
// epoch, absorb each fault class, and two identically-seeded runs
// must produce identical trajectories.
func TestClusterChaosMixedInjectors(t *testing.T) {
	run := func() (*Report, error) {
		tr, te, c := clusterRig(t, 3, 1)
		c.Devices[0].SetInjector(faults.NewInjector(faults.Profile{
			Seed: 31, StallRate: 0.3, StallFor: 2 * time.Millisecond,
		}))
		c.Devices[2].SetInjector(faults.NewInjector(faults.Profile{
			Seed: 32, CorruptRate: 0.2,
		}))
		c.Devices[1].SetInjector(faults.NewInjector(faults.Profile{
			Seed: 33, Kills: []faults.DeviceKill{{Device: 1, AfterScans: 2}},
		}))
		cfg := tinyCfg()
		return Run(tr, te, cfg, clusterOptions(c))
	}
	a, err := run()
	if err != nil {
		t.Fatalf("mixed-injector chaos run failed: %v", err)
	}
	if got, want := len(a.Metrics.EpochLoss), tinyCfg().Epochs; got != want {
		t.Fatalf("trained %d epochs, want %d", got, want)
	}
	if a.Recovery.DevicesLost != 1 || a.Recovery.DegradedReads == 0 {
		t.Fatalf("device loss not absorbed: %+v", a.Recovery)
	}
	if a.Faults.CorruptDetected == 0 {
		t.Fatal("corruption injector fired but no CRC failure was caught")
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, "chaos repeat", a, b)
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Fatalf("fault accounting diverged between identical runs:\n%+v\n%+v", a.Faults, b.Faults)
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) {
		t.Fatalf("recovery accounting diverged between identical runs:\n%+v\n%+v", a.Recovery, b.Recovery)
	}
}
