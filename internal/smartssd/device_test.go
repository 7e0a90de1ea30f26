package smartssd

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"nessa/internal/data"
	"nessa/internal/faults"
)

// rawPolicy is the raw read: one issue, no backoff, no retry.
var rawPolicy = RetryPolicy{MaxAttempts: 1}

func newDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFig6CalibrationCIFAR10(t *testing.T) {
	// Paper §4.4: a 128-image CIFAR-10 batch (3 KB images) achieves
	// ~1.46 GB/s over the P2P link.
	l := P2PLink()
	batch := int64(128 * 3 * 1024)
	got := l.EffectiveThroughput(batch, 128) / 1e9
	if got < 1.30 || got > 1.60 {
		t.Fatalf("CIFAR-10 batch throughput = %.3f GB/s, want ~1.46", got)
	}
}

func TestFig6CalibrationImageNet100(t *testing.T) {
	// Paper §4.4: a 128-image ImageNet-100 batch (0.126 MB images)
	// achieves ~2.28 GB/s.
	l := P2PLink()
	batch := int64(128 * 129 * 1024)
	got := l.EffectiveThroughput(batch, 128) / 1e9
	if got < 2.10 || got > 2.50 {
		t.Fatalf("ImageNet-100 batch throughput = %.3f GB/s, want ~2.28", got)
	}
}

func TestFig6ThroughputMonotoneInImageSize(t *testing.T) {
	// Fig 6's qualitative claim: larger images saturate the link better.
	l := P2PLink()
	prev := -1.0
	for _, kb := range []int64{1, 3, 12, 64, 129} {
		eff := l.EffectiveThroughput(128*kb*1024, 128)
		if eff <= prev {
			t.Fatalf("throughput not monotone at %d KB images: %v <= %v", kb, eff, prev)
		}
		prev = eff
	}
}

func TestThroughputBelowPeak(t *testing.T) {
	f := func(kb uint16) bool {
		l := P2PLink()
		b := int64(kb)*1024 + 1
		return l.EffectiveThroughput(128*b, 128) < l.PeakBW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSpeedupP2PvsHostIs214x(t *testing.T) {
	d := newDevice(t)
	got := d.SpeedupP2PvsHost()
	if got < 2.13 || got > 2.16 {
		t.Fatalf("P2P vs host speed-up = %.3f×, want ~2.14×", got)
	}
}

func TestP2PFasterThanHostPath(t *testing.T) {
	d := newDevice(t)
	img := make([]byte, 8*1024*1024)
	if err := d.StoreDataset("ds", img); err != nil {
		t.Fatal(err)
	}
	t0 := d.Clock.Now()
	if _, _, err := d.ReadResilient("ds", 0, int64(len(img)), 128, nil, rawPolicy); err != nil {
		t.Fatal(err)
	}
	p2pT := d.Clock.Now() - t0
	t1 := d.Clock.Now()
	if err := hostRead(d, "ds", int64(len(img)), 128); err != nil {
		t.Fatal(err)
	}
	hostT := d.Clock.Now() - t1
	if p2pT >= hostT {
		t.Fatalf("P2P read (%v) not faster than host read (%v)", p2pT, hostT)
	}
	ratio := float64(hostT) / float64(p2pT)
	if ratio < 1.5 {
		t.Fatalf("host/P2P time ratio = %.2f, expected a substantial gap", ratio)
	}
}

func TestReadReturnsStoredBytes(t *testing.T) {
	d := newDevice(t)
	spec, _ := data.Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 20, 5
	tr, _ := data.Generate(spec)
	img, err := data.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.StoreDataset("cifar", img); err != nil {
		t.Fatal(err)
	}
	// Read back records 3..7 and decode them.
	rec := spec.BytesPerImage
	buf, _, err := d.ReadResilient("cifar", 3*rec, 4*rec, 4, nil, rawPolicy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := data.Decode(spec, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got.Labels[i] != tr.Labels[3+i] {
			t.Fatalf("record %d label mismatch", i)
		}
	}
	if !bytes.Equal(buf[:rec], img[3*rec:4*rec]) {
		t.Fatal("raw record bytes differ")
	}
}

func TestDRAMCapacityEnforced(t *testing.T) {
	d := newDevice(t)
	d.Spec.DRAMBytes = 1024
	if err := d.StoreDataset("ds", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadResilient("ds", 0, 4096, 1, nil, rawPolicy); err == nil {
		t.Fatal("expected DRAM-capacity error")
	}
}

// TestRawReadLinkDropFailsOnce: under the raw policy a dropped P2P
// link fails the read after its one attempt, with an error wrapping
// ErrLinkDown. It pays the P2P command setup to p2p.error and nothing
// else: no backoff, and no host-path read.
func TestRawReadLinkDropFailsOnce(t *testing.T) {
	d := newDevice(t)
	if err := d.StoreDataset("ds", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	d.SetInjector(faults.NewInjector(faults.Profile{Seed: 3, LinkDownRate: 1}))
	before := d.Clock.Now()
	buf, st, err := d.ReadResilient("ds", 0, 4096, 4, nil, rawPolicy)
	if !errors.Is(err, faults.ErrLinkDown) || buf != nil {
		t.Fatalf("raw read over a dropped link: buf %v, err %v; want nil and a wrapped ErrLinkDown", buf, err)
	}
	if st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("stats %+v, want exactly one attempt", st)
	}
	if got := d.Acct.Time("p2p.error"); got != d.P2P.CommandLatency {
		t.Fatalf("p2p.error = %v, want one P2P command setup (%v)", got, d.P2P.CommandLatency)
	}
	if got := d.Clock.Now() - before; got != d.P2P.CommandLatency {
		t.Fatalf("clock advanced %v, want only the P2P command setup", got)
	}
	for _, b := range []string{"host.read", "host.error", "p2p.read", "retry.backoff"} {
		if d.Acct.Time(b) != 0 || d.Acct.Bytes(b) != 0 {
			t.Fatalf("raw read over a dropped link charged %s", b)
		}
	}
}

func TestAccountingByPath(t *testing.T) {
	d := newDevice(t)
	if err := d.StoreDataset("ds", make([]byte, 1024*1024)); err != nil {
		t.Fatal(err)
	}
	d.ReadResilient("ds", 0, 1024*1024, 16, nil, rawPolicy)
	hostRead(d, "ds", 512*1024, 8)
	d.SendToGPU(256*1024, 4)
	d.ReceiveFeedback(64 * 1024)

	if got := d.Acct.Bytes("p2p.read"); got != 1024*1024 {
		t.Errorf("p2p.read bytes = %d, want %d", got, 1024*1024)
	}
	if got := d.Acct.Bytes("host.read"); got != 512*1024 {
		t.Errorf("host.read bytes = %d, want %d", got, 512*1024)
	}
	if got := d.Acct.Bytes("gpu.send"); got != 256*1024 {
		t.Errorf("gpu.send bytes = %d, want %d", got, 256*1024)
	}
	if got := d.Acct.Bytes("gpu.feedback"); got != 64*1024 {
		t.Errorf("gpu.feedback bytes = %d, want %d", got, 64*1024)
	}
	var charged time.Duration
	for _, b := range d.Acct.TimeBuckets() {
		charged += b.Duration
	}
	if charged <= 0 || d.Clock.Now() <= 0 {
		t.Error("transfers did not advance simulated time")
	}
}

func TestFitsOnChip(t *testing.T) {
	d := newDevice(t)
	if !d.FitsOnChip(4 * 1024 * 1024) {
		t.Error("4 MB should fit the 4.32 MB on-chip memory")
	}
	if d.FitsOnChip(5 * 1024 * 1024) {
		t.Error("5 MB should not fit the 4.32 MB on-chip memory")
	}
}

func TestLinkDurationZeroBytes(t *testing.T) {
	l := P2PLink()
	if d := l.Duration(0, 0); d != 0 {
		t.Fatalf("zero transfer took %v, want 0", d)
	}
}

func TestLinkDurationChargesCommandOverhead(t *testing.T) {
	l := P2PLink()
	one := l.Duration(1024, 1)
	many := l.Duration(1024, 64)
	if many-one != 63*l.CommandLatency {
		t.Fatalf("command overhead = %v, want %v", many-one, 63*l.CommandLatency)
	}
}

func TestLinkNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative transfer")
		}
	}()
	P2PLink().Duration(-1, 1)
}

func TestGPULinkFastEnoughToNotDominate(t *testing.T) {
	// Moving a 28 % CIFAR-10 subset (14 K images × 3 KB) to the GPU
	// should take ~3.6 ms — negligible against epoch times.
	d := newDevice(t)
	dur := d.SendToGPU(14000*3*1024, 14000)
	if dur > 100*time.Millisecond {
		t.Fatalf("subset transfer took %v, unreasonably slow", dur)
	}
}

// hostRead reads [0, length) over the host path, unverified and issued
// once, as commands equal records.
func hostRead(d *Device, name string, length int64, commands int) error {
	recs := make([]int, commands)
	for i := range recs {
		recs[i] = i
	}
	_, _, err := d.ReadResilientHost(new([]byte), nil, name, recs, length/int64(commands), nil, RetryPolicy{MaxAttempts: 1})
	return err
}
