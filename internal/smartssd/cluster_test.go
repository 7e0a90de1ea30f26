package smartssd

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"nessa/internal/data"
	"nessa/internal/faults"
)

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("zero-device cluster accepted")
	}
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Devices) != 4 {
		t.Fatalf("size = %d, want 4", len(c.Devices))
	}
}

func TestShardDatasetSplitsRecords(t *testing.T) {
	c, _ := NewCluster(3)
	const rec = 64
	img := make([]byte, 10*rec)
	for i := range img {
		img[i] = byte(i / rec) // record index stamped into payload
	}
	counts, err := c.ShardDataset("ds", img, rec)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 10 {
		t.Fatalf("shards hold %d records, want 10", total)
	}
	// Shard 0 holds records [0,3): verify payload identity.
	buf, _, err := c.Devices[0].SSD.ReadAt("ds", 0, int64(counts[0])*rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, img[:int64(counts[0])*rec]) {
		t.Fatal("shard 0 payload differs from source stripe")
	}
}

func TestShardDatasetErrors(t *testing.T) {
	cases := []struct {
		name    string
		devices int
		img     int64
		rec     int64
		ok      bool
	}{
		{"valid even split", 2, 8 * 64, 64, true},
		{"valid uneven split", 3, 10 * 64, 64, true},
		{"one record per device", 4, 4 * 64, 64, true},
		{"zero record size", 2, 128, 0, false},
		{"negative record size", 2, 128, -64, false},
		{"non-aligned image", 2, 65, 64, false},
		{"fewer records than devices", 2, 64, 64, false},
		{"empty image", 2, 0, 64, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(tc.devices)
			if err != nil {
				t.Fatal(err)
			}
			counts, err := c.ShardDataset("ds", make([]byte, tc.img), tc.rec)
			if tc.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if !tc.ok {
				return
			}
			total := 0
			for i, n := range counts {
				if n <= 0 {
					t.Errorf("shard %d holds %d records; empty shards must be rejected", i, n)
				}
				total += n
			}
			if int64(total)*tc.rec != tc.img {
				t.Errorf("shards hold %d records, want %d", total, tc.img/tc.rec)
			}
		})
	}
}

func TestParallelScanReturnsAllShards(t *testing.T) {
	spec, _ := data.Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 40, 5
	train, _ := data.Generate(spec)
	img, err := data.Encode(train)
	if err != nil {
		t.Fatal(err)
	}

	c, _ := NewCluster(4)
	if _, err := c.ShardDataset("cifar", img, spec.BytesPerImage); err != nil {
		t.Fatal(err)
	}
	shards, _, wall, err := c.ParallelScan("cifar", spec.BytesPerImage)
	if err != nil {
		t.Fatal(err)
	}
	if wall <= 0 {
		t.Error("scan wall time not positive")
	}
	var rebuilt []byte
	for _, s := range shards {
		rebuilt = append(rebuilt, s...)
	}
	if !bytes.Equal(rebuilt, img) {
		t.Fatal("concatenated shards differ from the original image")
	}
	back, err := data.Decode(spec, rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != train.Len() {
		t.Fatalf("decoded %d records, want %d", back.Len(), train.Len())
	}
}

func TestParallelScanFasterThanSingleDevice(t *testing.T) {
	// The future-work claim: D drives scan ~D× faster than one.
	spec, _ := data.Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 400, 5
	train, _ := data.Generate(spec)
	img, _ := data.Encode(train)

	single, _ := NewCluster(1)
	single.ShardDataset("ds", img, spec.BytesPerImage)
	_, _, wall1, err := single.ParallelScan("ds", spec.BytesPerImage)
	if err != nil {
		t.Fatal(err)
	}

	quad, _ := NewCluster(4)
	quad.ShardDataset("ds", img, spec.BytesPerImage)
	_, _, wall4, err := quad.ParallelScan("ds", spec.BytesPerImage)
	if err != nil {
		t.Fatal(err)
	}
	ratio := wall1.Seconds() / wall4.Seconds()
	if ratio < 2.5 {
		t.Fatalf("4-drive scan speed-up = %.2fx, want near 4x", ratio)
	}
}

func TestParallelScanValidatesRecordSize(t *testing.T) {
	c, _ := NewCluster(2)
	if _, _, _, err := c.ParallelScan("ds", 0); err == nil {
		t.Error("zero record size accepted")
	}
	if _, _, _, err := c.ParallelScan("ds", -3); err == nil {
		t.Error("negative record size accepted")
	}
}

// TestParallelScanSurvivesStalls: a stalled shard completes, only
// later. At a 50 % rate some stall time is charged; when every shard
// stalls, each member is charged exactly one StallFor per scan.
func TestParallelScanSurvivesStalls(t *testing.T) {
	spec, _ := data.Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 40, 5
	train, _ := data.Generate(spec)
	img, _ := data.Encode(train)

	const stallFor = 3 * time.Millisecond
	for _, rate := range []float64{0.5, 1} {
		c, _ := NewCluster(4)
		if _, err := c.ShardDataset("ds", img, spec.BytesPerImage); err != nil {
			t.Fatal(err)
		}
		c.SetInjector(faults.NewInjector(faults.Profile{Seed: 11, StallRate: rate, StallFor: stallFor}))
		shards, st, wall, err := c.ParallelScan("ds", spec.BytesPerImage)
		if err != nil {
			t.Fatalf("stall rate %v: %v", rate, err)
		}
		var rebuilt []byte
		for _, s := range shards {
			rebuilt = append(rebuilt, s...)
		}
		if !bytes.Equal(rebuilt, img) {
			t.Fatalf("stall rate %v: shards corrupted by stalls", rate)
		}
		if st.Read.Attempts != len(c.Devices) || st.Reissues != 0 {
			t.Fatalf("stall rate %v: stats %+v, want one attempt per shard and no re-issue", rate, st)
		}
		var stallT time.Duration
		for i, d := range c.Devices {
			got := d.Acct.Time("scan.stall")
			if rate == 1 && got != stallFor {
				t.Errorf("device %d scan.stall = %v, want %v", i, got, stallFor)
			}
			stallT += got
		}
		if stallT <= 0 {
			t.Fatalf("stall rate %v: no stall time charged", rate)
		}
		if wall <= stallFor && rate == 1 {
			t.Fatalf("wall %v does not include the %v stall", wall, stallFor)
		}
	}
}

func TestClusterAccounting(t *testing.T) {
	spec, _ := data.Lookup("MNIST")
	spec.SimTrain, spec.SimTest = 60, 5
	train, _ := data.Generate(spec)
	img, _ := data.Encode(train)

	c, _ := NewCluster(3)
	c.ShardDataset("ds", img, spec.BytesPerImage)
	c.ParallelScan("ds", spec.BytesPerImage)
	if got := c.TotalBytes("p2p.read"); got != int64(len(img)) {
		t.Fatalf("cluster p2p bytes = %d, want %d", got, len(img))
	}
	if c.MaxClock() <= 0 {
		t.Error("cluster clock did not advance")
	}
}

// TestShardedScanIsThePerDeviceReadSequence pins what a k+0 placement
// costs: nothing but its devices' reads. A ParallelScan of a sharded
// dataset under a transient/corruption fault schedule returns the
// payloads, stats and wall, and leaves every device clock and
// accountant, exactly where the same resilient reads issued device by
// device leave them — and the cluster's own accountant stays empty.
func TestShardedScanIsThePerDeviceReadSequence(t *testing.T) {
	spec, _ := data.Lookup("CIFAR-10")
	spec.SimTrain, spec.SimTest = 40, 5
	train, _ := data.Generate(spec)
	img, _ := data.Encode(train)
	rec := spec.BytesPerImage
	verify := func(b []byte) error { return data.VerifyImage(b, rec) }
	prof := faults.Profile{Seed: 9, TransientRate: 0.3, CorruptRate: 0.3}

	rig := func() *Cluster {
		c, _ := NewCluster(3)
		if _, err := c.ShardDataset("ds", img, rec); err != nil {
			t.Fatal(err)
		}
		c.Verify = verify
		c.SetInjector(faults.NewInjector(prof))
		return c
	}
	scanned, manual := rig(), rig()

	shards, st, wall, err := scanned.ParallelScan("ds", rec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Read.Retries == 0 {
		t.Fatal("fault schedule fired nothing; the comparison below would be vacuous")
	}
	var wantSt ScanStats
	var wantWall time.Duration
	for i, d := range manual.Devices {
		size, _ := d.SSD.Size("ds")
		before := d.Clock.Now()
		buf, rst, err := d.ReadResilient("ds", 0, size, int(size/rec), verify, RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		d.inj.Stall() // the scan's per-issue stall draw on the shared schedule
		wantSt.Read.Add(rst)
		if dt := d.Clock.Now() - before; dt > wantWall {
			wantWall = dt
		}
		if !bytes.Equal(shards[i], buf) {
			t.Errorf("shard %d payload differs from the device's own read", i)
		}
		got := scanned.Devices[i]
		if got.Clock.Now() != d.Clock.Now() {
			t.Errorf("device %d clock = %v, want %v", i, got.Clock.Now(), d.Clock.Now())
		}
		if !reflect.DeepEqual(got.Acct.TimeBuckets(), d.Acct.TimeBuckets()) ||
			!reflect.DeepEqual(got.Acct.ByteBuckets(), d.Acct.ByteBuckets()) {
			t.Errorf("device %d accountant differs from the per-device read's", i)
		}
	}
	if st != wantSt {
		t.Errorf("scan stats = %+v, want %+v", st, wantSt)
	}
	if wall != wantWall {
		t.Errorf("scan wall = %v, want %v", wall, wantWall)
	}
	if tb, bb := scanned.Acct.TimeBuckets(), scanned.Acct.ByteBuckets(); len(tb)+len(bb) != 0 {
		t.Errorf("k+0 placement charged the cluster accountant: %v %v", tb, bb)
	}
	if _, err := scanned.Rebuild("ds"); err == nil {
		t.Error("Rebuild accepted a placement with no parity")
	}
	if _, err := scanned.DegradedScanBound("ds", 1); err == nil {
		t.Error("DegradedScanBound accepted a placement with no parity")
	}
}
