package core

import (
	"fmt"
	"testing"

	"nessa/internal/data"
	"nessa/internal/smartssd"
)

// TestStreamingSelectionTrains: the single-pass selector plugs into the
// full training loop and lands close to the batch selector's accuracy.
func TestStreamingSelectionTrains(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := tinyCfg()

	batch := tinyOptions()
	batch.DynamicSizing = false
	batch.SubsetBias = false
	batch.SubsetFrac = 0.25

	stream := batch
	stream.Streaming = true
	stream.StreamChunk = 128

	repB, err := Run(tr, te, cfg, batch)
	if err != nil {
		t.Fatal(err)
	}
	repS, err := Run(tr, te, cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	if repS.Metrics.BestAcc() < repB.Metrics.BestAcc()-0.05 {
		t.Fatalf("streaming selection accuracy %.3f too far below batch %.3f",
			repS.Metrics.BestAcc(), repB.Metrics.BestAcc())
	}
}

// TestStreamingDeviceScan: with a device attached, the streaming path
// charges chunked P2P reads covering the full candidate scan per
// reselection epoch.
func TestStreamingDeviceScan(t *testing.T) {
	spec := tinySpec()
	tr, te := data.Generate(spec)
	cfg := tinyCfg()
	cfg.Epochs = 4

	dev, err := smartssd.New()
	if err != nil {
		t.Fatal(err)
	}
	img, err := data.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.StoreDataset("tiny", img); err != nil {
		t.Fatal(err)
	}

	opt := tinyOptions()
	opt.DynamicSizing = false
	opt.SubsetBias = false
	opt.SubsetFrac = 0.25
	opt.Streaming = true
	opt.StreamChunk = 100
	opt.Device = dev
	opt.DatasetName = "tiny"

	if _, err := Run(tr, te, cfg, opt); err != nil {
		t.Fatal(err)
	}
	p2p := dev.Acct.Bytes("p2p.read")
	want := int64(cfg.Epochs) * int64(tr.Len()) * spec.BytesPerImage
	if p2p != want {
		t.Fatalf("p2p.read = %d bytes, want %d (chunked full scan per epoch)", p2p, want)
	}
	if sent := dev.Acct.Bytes("gpu.send"); sent == 0 {
		t.Fatal("no subset bytes sent to the GPU")
	}
}

// Streaming trajectories of TestStreamingMatchesAcrossWorkers, recorded
// at the parent of the PR that deleted the gradient sketch: the
// trajectoryHash of the host-only and device-attached runs, and the
// device run's p2p.read bytes and final simulated clock.
const (
	goldenStreamingHost   = 0x94d5817962fd79c0
	goldenStreamingDevice = 0x4f2bcee9e1deba83
	goldenStreamingP2P    = 9830400
	goldenStreamingClock  = 11976920 // ns
)

// TestStreamingMatchesAcrossWorkers: the full training trajectory under
// streaming selection is pinned host-only at 1 and 4 workers and
// device-attached at the invariant matrix's 1 and 2 (whose streaming
// option set is this test's).
func TestStreamingMatchesAcrossWorkers(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	cfg := matrixCfg("streaming")
	for _, workers := range []int{1, 4} {
		opt := matrixOptions("streaming", workers)
		opt.StreamChunk = 0
		rep, err := Run(tr, te, cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := trajectoryHash(rep); got != goldenStreamingHost {
			t.Errorf("host workers=%d: trajectory %#x != golden %#x", workers, got, uint64(goldenStreamingHost))
		}
	}
	for _, workers := range []int{1, 2} {
		c := runCell(t, fmt.Sprintf("streaming/device/w%d/clean", workers))
		if got := trajectoryHash(c.rep); got != goldenStreamingDevice {
			t.Errorf("device workers=%d: trajectory %#x != golden %#x", workers, got, uint64(goldenStreamingDevice))
		}
		if got := c.devs[0].Acct.Bytes("p2p.read"); got != goldenStreamingP2P {
			t.Errorf("workers=%d: p2p.read = %d bytes, golden %d", workers, got, goldenStreamingP2P)
		}
		if got := c.devs[0].Clock.Now(); got != goldenStreamingClock {
			t.Errorf("workers=%d: device clock %d, golden %d", workers, got, goldenStreamingClock)
		}
	}
}

// TestStreamingRequiresFacility: the streaming pipeline only implements
// the facility selector.
func TestStreamingRequiresFacility(t *testing.T) {
	tr, te := data.Generate(tinySpec())
	opt := tinyOptions()
	opt.Streaming = true
	opt.Selector = SelectorRandom
	if _, err := Run(tr, te, tinyCfg(), opt); err == nil {
		t.Fatal("streaming with a non-facility selector accepted")
	}
}
