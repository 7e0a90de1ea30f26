package smartssd

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"nessa/internal/faults"
)

func TestRetryPolicyNormalize(t *testing.T) {
	def := DefaultRetryPolicy()
	cases := []struct {
		name string
		in   RetryPolicy
		want RetryPolicy
	}{
		{"zero value", RetryPolicy{}, def},
		{"attempts only", RetryPolicy{MaxAttempts: 6},
			RetryPolicy{MaxAttempts: 6, BaseBackoff: def.BaseBackoff, MaxBackoff: def.MaxBackoff}},
		{"base only", RetryPolicy{BaseBackoff: time.Millisecond},
			RetryPolicy{MaxAttempts: def.MaxAttempts, BaseBackoff: time.Millisecond, MaxBackoff: def.MaxBackoff}},
		{"max only", RetryPolicy{MaxBackoff: time.Second},
			RetryPolicy{MaxAttempts: def.MaxAttempts, BaseBackoff: def.BaseBackoff, MaxBackoff: time.Second}},
		{"fully specified", RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Second},
			RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Second}},
		{"negative fields", RetryPolicy{MaxAttempts: -1, BaseBackoff: -time.Millisecond, MaxBackoff: -time.Second}, def},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.normalize(); got != tc.want {
				t.Fatalf("normalize(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

// stripeImg builds a record-aligned image with the record index
// stamped into every byte, so payload provenance is checkable.
func stripeImg(records int, rec int64) []byte {
	img := make([]byte, int64(records)*rec)
	for i := range img {
		img[i] = byte(int64(i) / rec)
	}
	return img
}

// reassemble concatenates scan shards back into one image.
func reassemble(shards [][]byte) []byte {
	var out []byte
	for _, s := range shards {
		out = append(out, s...)
	}
	return out
}

func TestStripeDatasetLayout(t *testing.T) {
	c, _ := NewCluster(4)
	const rec = 64
	img := stripeImg(10, rec)
	counts, err := c.StripeDataset("ds", img, rec, Placement{DataShards: 3, ParityShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, n := range counts {
		if n <= 0 {
			t.Fatalf("data stripe %d holds %d records", i, n)
		}
		total += n
	}
	if total != 10 {
		t.Fatalf("data stripes hold %d records, want 10", total)
	}
	// Parity lives on device 3, padded to the longest stripe.
	psize, err := c.Devices[3].SSD.Size("ds")
	if err != nil {
		t.Fatal(err)
	}
	meta := c.stripes["ds"]
	if meta == nil {
		t.Fatal("no stripe metadata recorded")
	}
	if psize != meta.stripeLen {
		t.Fatalf("parity stripe is %d bytes, want stripeLen %d", psize, meta.stripeLen)
	}
	if c.Acct.Time("stripe.encode") <= 0 {
		t.Fatal("no encode time charged for parity")
	}
}

func TestStripeDatasetErrors(t *testing.T) {
	c, _ := NewCluster(3)
	img := stripeImg(8, 64)
	cases := []struct {
		name  string
		img   []byte
		rec   int64
		place Placement
	}{
		{"zero record size", img, 0, Placement{DataShards: 2, ParityShards: 1}},
		{"non-aligned image", img[:65], 64, Placement{DataShards: 2, ParityShards: 1}},
		{"negative parity", img, 64, Placement{DataShards: 3, ParityShards: -1}},
		{"no data", img, 64, Placement{DataShards: 0, ParityShards: 1}},
		{"too many shards", img, 64, Placement{DataShards: 3, ParityShards: 1}},
		{"fewer records than stripes", stripeImg(1, 64), 64, Placement{DataShards: 2, ParityShards: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := c.StripeDataset("bad", tc.img, tc.rec, tc.place); err == nil {
				t.Fatal("invalid striping accepted")
			}
		})
	}
}

func TestStripedScanCleanMatchesImage(t *testing.T) {
	c, _ := NewCluster(4)
	const rec = 64
	img := stripeImg(12, rec)
	if _, err := c.StripeDataset("ds", img, rec, Placement{DataShards: 3, ParityShards: 1}); err != nil {
		t.Fatal(err)
	}
	shards, st, wall, err := c.ParallelScan("ds", rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("striped scan returned %d shards, want 3 data stripes", len(shards))
	}
	if !bytes.Equal(reassemble(shards), img) {
		t.Fatal("clean striped scan differs from the source image")
	}
	if st.DegradedReads != 0 || st.ReconstructedBytes != 0 {
		t.Fatalf("clean scan reported degraded reads: %+v", st)
	}
	if wall <= 0 {
		t.Fatal("wall time not positive")
	}
	// Clean scans never touch parity: the parity device serves writes
	// only, and no recovery buckets are charged.
	if c.Acct.Bytes("recover.parity") != 0 || c.Acct.Time("recover.reconstruct") != 0 {
		t.Fatal("clean scan charged recovery buckets")
	}
}

func TestStripedScanSurvivesDeviceLoss(t *testing.T) {
	c, _ := NewCluster(4)
	const rec = 64
	img := stripeImg(12, rec)
	if _, err := c.StripeDataset("ds", img, rec, Placement{DataShards: 3, ParityShards: 1}); err != nil {
		t.Fatal(err)
	}
	// Device 1 dies after its first completed scan.
	c.SetInjector(faults.NewInjector(faults.Profile{Seed: 5, Kills: []faults.DeviceKill{{Device: 1, AfterScans: 1}}}))

	clean, _, cleanWall, err := c.ParallelScan("ds", rec)
	if err != nil {
		t.Fatalf("scan before the kill failed: %v", err)
	}
	if !bytes.Equal(reassemble(clean), img) {
		t.Fatal("pre-kill scan differs from the source image")
	}

	degraded, st, degradedWall, err := c.ParallelScan("ds", rec)
	if err != nil {
		t.Fatalf("degraded scan failed: %v", err)
	}
	if !bytes.Equal(reassemble(degraded), img) {
		t.Fatal("degraded scan payload differs from the source image — reconstruction is wrong")
	}
	if st.DegradedReads != 1 {
		t.Fatalf("DegradedReads = %d, want 1", st.DegradedReads)
	}
	meta := c.stripes["ds"]
	if want := int64(meta.counts[1]) * rec; st.ReconstructedBytes != want {
		t.Fatalf("ReconstructedBytes = %d, want %d", st.ReconstructedBytes, want)
	}
	if got := c.DeviceHealth(1); got != HealthLost {
		t.Fatalf("device 1 health = %v, want lost", got)
	}
	if c.LostCount() != 1 {
		t.Fatalf("LostCount = %d, want 1", c.LostCount())
	}
	if c.Acct.Bytes("recover.parity") != meta.stripeLen {
		t.Fatalf("recover.parity = %d bytes, want one stripe (%d)", c.Acct.Bytes("recover.parity"), meta.stripeLen)
	}
	if c.Acct.Time("recover.reconstruct") <= 0 {
		t.Fatal("no reconstruction time charged")
	}
	// The degraded scan's overhead stays within the modeled bound.
	bound, err := c.DegradedScanBound("ds", 1)
	if err != nil {
		t.Fatal(err)
	}
	if overhead := degradedWall - cleanWall; overhead > bound {
		t.Fatalf("degraded overhead %v exceeds modeled bound %v", overhead, bound)
	}
	// Loss is sticky: the next scan reconstructs again without a probe.
	again, st2, _, err := c.ParallelScan("ds", rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reassemble(again), img) || st2.DegradedReads != 1 {
		t.Fatalf("second degraded scan wrong: stats %+v", st2)
	}
}

func TestStripedScanUnrecoverableLoss(t *testing.T) {
	c, _ := NewCluster(4)
	const rec = 64
	img := stripeImg(12, rec)
	if _, err := c.StripeDataset("ds", img, rec, Placement{DataShards: 3, ParityShards: 1}); err != nil {
		t.Fatal(err)
	}
	c.SetInjector(faults.NewInjector(faults.Profile{Seed: 5, Kills: []faults.DeviceKill{
		{Device: 0, AfterScans: 1},
		{Device: 2, AfterScans: 1},
	}}))
	if _, _, _, err := c.ParallelScan("ds", rec); err != nil {
		t.Fatalf("pre-kill scan failed: %v", err)
	}
	_, _, _, err := c.ParallelScan("ds", rec)
	if !errors.Is(err, faults.ErrDeviceLost) {
		t.Fatalf("two losses with one parity: err = %v, want wrapped ErrDeviceLost", err)
	}
	noRecovery := func(t *testing.T, call string) {
		t.Helper()
		for _, b := range []string{"recover.parity", "recover.rebuild.read"} {
			if got := c.Acct.Bytes(b); got != 0 {
				t.Fatalf("%s past the parity budget charged %d bytes to %s", call, got, b)
			}
		}
		if got := c.Acct.Time("recover.reconstruct"); got != 0 {
			t.Fatalf("%s past the parity budget charged %v to recover.reconstruct", call, got)
		}
	}
	noRecovery(t, "the scan")

	// The Rebuild row: both losses are confirmed, spares for both are
	// attached, and the Rebuild must still fail before it reads.
	c.AttachSpare(newDevice(t))
	c.AttachSpare(newDevice(t))
	starts := c.clocks(len(c.Devices))
	if _, err := c.Rebuild("ds"); !errors.Is(err, faults.ErrDeviceLost) {
		t.Fatalf("rebuild of two losses with one parity: err = %v, want wrapped ErrDeviceLost", err)
	}
	noRecovery(t, "the rebuild")
	if wall := c.since(starts); wall != 0 {
		t.Fatalf("the refused rebuild advanced a member's clock by %v", wall)
	}
	if c.Spares() != 2 {
		t.Fatalf("Spares = %d after a refused rebuild, want 2", c.Spares())
	}
}

func TestPlainShardLossIsFatal(t *testing.T) {
	c, _ := NewCluster(3)
	const rec = 64
	img := stripeImg(9, rec)
	if _, err := c.ShardDataset("ds", img, rec); err != nil {
		t.Fatal(err)
	}
	c.SetInjector(faults.NewInjector(faults.Profile{Seed: 5, Kills: []faults.DeviceKill{{Device: 2, AfterScans: 1}}}))
	if _, _, _, err := c.ParallelScan("ds", rec); err != nil {
		t.Fatalf("pre-kill scan failed: %v", err)
	}
	_, _, _, err := c.ParallelScan("ds", rec)
	if !errors.Is(err, faults.ErrDeviceLost) {
		t.Fatalf("unprotected shard loss: err = %v, want wrapped ErrDeviceLost", err)
	}
	if got := c.DeviceHealth(2); got != HealthLost {
		t.Fatalf("device 2 health = %v, want lost", got)
	}
}

func TestRebuildRestoresHealthyCluster(t *testing.T) {
	c, _ := NewCluster(4)
	const rec = 64
	img := stripeImg(12, rec)
	if _, err := c.StripeDataset("ds", img, rec, Placement{DataShards: 3, ParityShards: 1}); err != nil {
		t.Fatal(err)
	}
	c.SetInjector(faults.NewInjector(faults.Profile{Seed: 5, Kills: []faults.DeviceKill{{Device: 1, AfterScans: 1}}}))
	if _, _, _, err := c.ParallelScan("ds", rec); err != nil {
		t.Fatal(err)
	}
	if _, st, _, err := c.ParallelScan("ds", rec); err != nil || st.DegradedReads != 1 {
		t.Fatalf("expected one degraded scan (err=%v stats=%+v)", err, st)
	}

	// No spare: rebuild must refuse, cluster stays degraded.
	if _, err := c.Rebuild("ds"); err == nil {
		t.Fatal("rebuild without a spare succeeded")
	}
	spare, err := New()
	if err != nil {
		t.Fatal(err)
	}
	c.AttachSpare(spare)
	if c.Spares() != 1 {
		t.Fatalf("Spares = %d, want 1", c.Spares())
	}
	survivorBefore := c.Devices[0].Clock.Now()
	dur, err := c.Rebuild("ds")
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("rebuild reported zero duration")
	}
	if c.Spares() != 0 {
		t.Fatal("spare not consumed")
	}
	if got := c.DeviceHealth(1); got != HealthHealthy {
		t.Fatalf("rebuilt slot health = %v, want healthy", got)
	}
	if c.Devices[1] != spare {
		t.Fatal("spare not swapped into the lost slot")
	}
	// The rebuild read survivors — the foreground-contention model:
	// their clocks advanced, so concurrent scans queue behind it.
	if c.Devices[0].Clock.Now() <= survivorBefore {
		t.Fatal("rebuild did not advance survivor clocks")
	}
	// Back to full health: the next scan is clean and identical.
	shards, st, _, err := c.ParallelScan("ds", rec)
	if err != nil {
		t.Fatal(err)
	}
	if st.DegradedReads != 0 {
		t.Fatalf("post-rebuild scan still degraded: %+v", st)
	}
	if !bytes.Equal(reassemble(shards), img) {
		t.Fatal("post-rebuild scan differs from the source image")
	}
	// LostCount is cumulative history, not current state.
	if c.LostCount() != 1 {
		t.Fatalf("LostCount = %d, want 1", c.LostCount())
	}
}

// TestHealthStateMachine drives noteLost directly: a loss is terminal
// and counted once.
func TestHealthStateMachine(t *testing.T) {
	c, _ := NewCluster(2)
	const rec = 64
	img := stripeImg(4, rec)
	if _, err := c.StripeDataset("ds", img, rec, Placement{DataShards: 1, ParityShards: 1}); err != nil {
		t.Fatal(err)
	}
	c.SetInjector(faults.NewInjector(faults.Profile{Seed: 1, Kills: []faults.DeviceKill{{Device: 0, AfterScans: 1}}}))
	c.bumpScans()
	c.noteLost(0, "ds")
	if got := c.DeviceHealth(0); got != HealthLost {
		t.Fatalf("health = %v, want lost", got)
	}
	c.noteLost(0, "ds")
	if got := c.DeviceHealth(0); got != HealthLost {
		t.Fatalf("health after a second loss = %v, want lost", got)
	}
	if c.LostCount() != 1 {
		t.Fatalf("LostCount = %d, want 1 (no double count)", c.LostCount())
	}
}

// TestLostMemberProbeCharge pins what a killed data member costs its
// own clock: the scan that finds it gone charges one P2P command setup
// to p2p.error (the failed read) and one host command setup to
// host.error (the liveness probe); every later scan skips it and
// charges it nothing.
func TestLostMemberProbeCharge(t *testing.T) {
	c, _ := NewCluster(4)
	const rec = 64
	if _, err := c.StripeDataset("ds", stripeImg(12, rec), rec, Placement{DataShards: 3, ParityShards: 1}); err != nil {
		t.Fatal(err)
	}
	c.SetInjector(faults.NewInjector(faults.Profile{Seed: 5, Kills: []faults.DeviceKill{{Device: 1, AfterScans: 1}}}))
	if _, _, _, err := c.ParallelScan("ds", rec); err != nil {
		t.Fatal(err)
	}
	d := c.Devices[1]
	if d.Acct.Time("host.error")+d.Acct.Time("p2p.error") != 0 {
		t.Fatal("the clean scan charged an error bucket")
	}
	for scan := 1; scan <= 3; scan++ {
		before := d.Clock.Now()
		if _, st, _, err := c.ParallelScan("ds", rec); err != nil || st.DegradedReads != 1 {
			t.Fatalf("degraded scan %d: err %v, stats %+v", scan, err, st)
		}
		if got := d.Acct.Time("host.error"); got != d.Host.CommandLatency {
			t.Fatalf("after scan %d: host.error = %v, want one host command (%v)", scan, got, d.Host.CommandLatency)
		}
		if got := d.Acct.Time("p2p.error"); got != d.P2P.CommandLatency {
			t.Fatalf("after scan %d: p2p.error = %v, want one P2P command (%v)", scan, got, d.P2P.CommandLatency)
		}
		want := time.Duration(0)
		if scan == 1 {
			want = d.Host.CommandLatency + d.P2P.CommandLatency
		}
		if got := d.Clock.Now() - before; got != want {
			t.Fatalf("scan %d advanced the lost member's clock by %v, want %v", scan, got, want)
		}
	}
}

func TestStripedScanRejectsMismatchedRecordSize(t *testing.T) {
	c, _ := NewCluster(3)
	img := stripeImg(6, 64)
	if _, err := c.StripeDataset("ds", img, 64, Placement{DataShards: 2, ParityShards: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.ParallelScan("ds", 32); err == nil {
		t.Fatal("scan with the wrong record size accepted")
	}
}

// TestLossesDuringRecovery kills members of a 4+2 placement while the
// cluster is already recovering, and requires every payload to equal
// the clean scan's. A parity member that dies in the scan that loses a
// data member is skipped for the second parity stripe. A Rebuild source
// that dies during the Rebuild is skipped for the next healthy member,
// and, being a data member, is decoded into its arena slot, charged,
// and rebuilt when a second spare is attached. recover.reconstruct
// always counts exactly the stripes the decodes write.
func TestLossesDuringRecovery(t *testing.T) {
	const rec = 64
	img := stripeImg(22, rec) // stripes of 5, 6, 5 and 6 records
	place := Placement{DataShards: 4, ParityShards: 2}
	setup := func(t *testing.T, kills ...faults.DeviceKill) (*Cluster, []byte) {
		t.Helper()
		c, _ := NewCluster(place.Total())
		if _, err := c.StripeDataset("ds", img, rec, place); err != nil {
			t.Fatal(err)
		}
		c.SetInjector(faults.NewInjector(faults.Profile{Seed: 5, Kills: kills}))
		members := slices.Clone(c.Devices) // Rebuild swaps spares in
		t.Cleanup(func() { checkClocks(t, append(members, c.Devices...)) })
		shards, _, _, err := c.ParallelScan("ds", rec)
		if err != nil {
			t.Fatalf("clean scan: %v", err)
		}
		clean := reassemble(shards) // a copy: views do not outlive the arena
		if !bytes.Equal(clean, img) {
			t.Fatal("clean scan differs from the source image")
		}
		return c, clean
	}
	scanEquals := func(t *testing.T, c *Cluster, clean []byte, degraded int) {
		t.Helper()
		shards, st, _, err := c.ParallelScan("ds", rec)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if !bytes.Equal(reassemble(shards), clean) {
			t.Fatal("scan payload differs from the clean scan's")
		}
		if st.DegradedReads != degraded {
			t.Fatalf("DegradedReads = %d, want %d", st.DegradedReads, degraded)
		}
	}
	health := func(t *testing.T, c *Cluster, lost ...int) {
		t.Helper()
		want := make([]Health, place.Total())
		for _, gi := range lost {
			want[gi] = HealthLost
		}
		for gi, w := range want {
			if got := c.DeviceHealth(gi); got != w {
				t.Fatalf("device %d health = %v, want %v", gi, got, w)
			}
		}
		if c.LostCount() != 2 {
			t.Fatalf("LostCount = %d, want 2", c.LostCount())
		}
	}

	// decoded requires recover.reconstruct to hold one charge per decode
	// so far, each for the number of stripes that decode wrote.
	decoded := func(t *testing.T, c *Cluster, stripes ...int) {
		t.Helper()
		meta := c.stripes["ds"]
		var want time.Duration
		for _, n := range stripes {
			want += gfTime(int64(place.DataShards) * meta.stripeLen * int64(n))
		}
		if got := c.Acct.Time("recover.reconstruct"); got != want {
			t.Fatalf("recover.reconstruct = %v, want %v for decodes of %v stripes", got, want, stripes)
		}
	}

	t.Run("data and first parity member together", func(t *testing.T) {
		c, clean := setup(t, faults.DeviceKill{Device: 1, AfterScans: 1}, faults.DeviceKill{Device: 4, AfterScans: 1})
		scanEquals(t, c, clean, 1)
		health(t, c, 1, 4)
		meta := c.stripes["ds"]
		if got := c.Acct.Bytes("recover.parity"); got != meta.stripeLen {
			t.Fatalf("recover.parity = %d bytes, want the second parity stripe alone (%d)", got, meta.stripeLen)
		}
		if c.Devices[5].Acct.Bytes("p2p.read") != meta.stripeLen {
			t.Fatal("the second parity member was not read")
		}
		decoded(t, c, 1)
		scanEquals(t, c, clean, 1) // both losses are sticky
		health(t, c, 1, 4)
		decoded(t, c, 1, 1)
	})

	t.Run("rebuild source dies during rebuild", func(t *testing.T) {
		// Device 0 dies once it has completed two scans: after the
		// degraded scan, so the first read that finds it gone is the
		// Rebuild's.
		c, clean := setup(t, faults.DeviceKill{Device: 1, AfterScans: 1}, faults.DeviceKill{Device: 0, AfterScans: 2})
		scanEquals(t, c, clean, 1)
		if c.DeviceHealth(0) != HealthHealthy || c.LostCount() != 1 {
			t.Fatalf("device 0 lost before the rebuild (LostCount %d)", c.LostCount())
		}
		spare, err := New()
		if err != nil {
			t.Fatal(err)
		}
		c.AttachSpare(spare)
		dirtyArena(c)
		if _, err := c.Rebuild("ds"); err != nil {
			t.Fatalf("rebuild with a source lost mid-rebuild: %v", err)
		}
		// Member 0 joined the decode: its stripe is in its arena slot,
		// and the Rebuild charged two stripes, not one.
		meta := c.stripes["ds"]
		if s0 := c.arena[0]; int64(cap(s0)) < meta.stripeLen || !bytes.Equal(s0[:meta.lenOf(0)], clean[:meta.lenOf(0)]) {
			t.Fatal("member 0 was not decoded into arena slot 0")
		}
		decoded(t, c, 1, 2)
		if got, want := c.Acct.Bytes("recover.rebuild.read"), meta.lenOf(2)+meta.lenOf(3)+2*meta.stripeLen; got != want {
			t.Fatalf("recover.rebuild.read = %d bytes, want members 2 to 5 (%d)", got, want)
		}
		if c.Devices[1] != spare || c.Spares() != 0 {
			t.Fatal("the spare was not swapped into slot 1")
		}
		if got, err := spare.SSD.Size("ds"); err != nil || got != int64(c.stripes["ds"].counts[1])*rec {
			t.Fatalf("spare holds %d bytes (err %v), want stripe 1", got, err)
		}
		health(t, c, 0)
		scanEquals(t, c, clean, 1) // stripe 0 from parity, stripe 1 from the spare
	})

	t.Run("rebuild source dies during rebuild, two spares", func(t *testing.T) {
		c, clean := setup(t, faults.DeviceKill{Device: 1, AfterScans: 1}, faults.DeviceKill{Device: 0, AfterScans: 2})
		scanEquals(t, c, clean, 1)
		first, second := newDevice(t), newDevice(t)
		c.AttachSpare(first)
		c.AttachSpare(second)
		if _, err := c.Rebuild("ds"); err != nil {
			t.Fatalf("rebuild with a source lost mid-rebuild: %v", err)
		}
		// The member lost first takes the first spare.
		if c.Devices[1] != first || c.Devices[0] != second || c.Spares() != 0 {
			t.Fatalf("slots 1 and 0 did not take the two spares in order (%d left)", c.Spares())
		}
		decoded(t, c, 1, 2)
		health(t, c)
		scanEquals(t, c, clean, 0)
	})
}

// checkClocks requires each device's simulated clock to equal the sum
// of its time buckets: every charge goes through Device.charge.
func checkClocks(t *testing.T, devs []*Device) {
	t.Helper()
	for _, d := range devs {
		var booked time.Duration
		for _, b := range d.Acct.TimeBuckets() {
			booked += b.Duration
		}
		if now := d.Clock.Now(); now != booked {
			t.Errorf("device %d: clock at %v, time buckets sum to %v", d.ID, now, booked)
		}
	}
}

// TestDecodeVerifyFailureRereadsParityOnce: the degraded scan and
// Rebuild share one rule for a decoded stripe that fails Verify — the
// parity that fed the decode may have been corrupted in flight, so it
// is read again and the decode repeated once. The Verify hook rejects
// the first decoded stripe it is handed, and each call must succeed
// after one extra parity read, charged to its own bucket.
func TestDecodeVerifyFailureRereadsParityOnce(t *testing.T) {
	const rec = 64
	img := stripeImg(22, rec)
	place := Placement{DataShards: 4, ParityShards: 2}
	setup := func(t *testing.T) (*Cluster, *stripeMeta, *bool) {
		t.Helper()
		c, _ := NewCluster(place.Total())
		if _, err := c.StripeDataset("ds", img, rec, place); err != nil {
			t.Fatal(err)
		}
		meta := c.stripes["ds"]
		stripe1 := img[meta.lenOf(0) : meta.lenOf(0)+meta.lenOf(1)]
		armed := new(bool) // reject the next decoded stripe 1
		c.Verify = func(b []byte) error {
			if *armed && bytes.Equal(b, stripe1) {
				*armed = false
				return faults.ErrCorruptRecord
			}
			return nil
		}
		c.SetInjector(faults.NewInjector(faults.Profile{Seed: 5, Kills: []faults.DeviceKill{{Device: 1, AfterScans: 1}}}))
		if _, _, _, err := c.ParallelScan("ds", rec); err != nil {
			t.Fatalf("clean scan: %v", err)
		}
		// Member 1 is lost from here on, so Verify sees its bytes only
		// as a decode output.
		return c, meta, armed
	}
	// twoDecodes requires the call to have decoded twice and read parity
	// member 4 twice, given the two ledgers before it.
	twoDecodes := func(t *testing.T, c *Cluster, meta *stripeMeta, recBefore time.Duration, parityBefore int64) {
		t.Helper()
		want := 2 * gfTime(int64(place.DataShards)*meta.stripeLen)
		if got := c.Acct.Time("recover.reconstruct") - recBefore; got != want {
			t.Fatalf("recover.reconstruct grew by %v, want two one-stripe decodes (%v)", got, want)
		}
		if got := c.Devices[4].Acct.Bytes("p2p.read") - parityBefore; got != 2*meta.stripeLen {
			t.Fatalf("parity member 4 read %d bytes, want its stripe twice (%d)", got, 2*meta.stripeLen)
		}
	}

	t.Run("degraded scan", func(t *testing.T) {
		c, meta, armed := setup(t)
		*armed = true
		shards, st, _, err := c.ParallelScan("ds", rec)
		if err != nil {
			t.Fatalf("degraded scan with one rejected decode: %v", err)
		}
		if *armed {
			t.Fatal("Verify never saw the decoded stripe")
		}
		if !bytes.Equal(reassemble(shards), img) || st.DegradedReads != 1 || st.Read.Corrupt != 1 {
			t.Fatalf("degraded scan: payload equal %v, stats %+v, want one degraded read and one corrupt",
				bytes.Equal(reassemble(shards), img), st)
		}
		if got := c.Acct.Bytes("recover.parity"); got != 2*meta.stripeLen {
			t.Fatalf("recover.parity = %d bytes, want the parity stripe twice (%d)", got, 2*meta.stripeLen)
		}
		twoDecodes(t, c, meta, 0, 0)
	})

	t.Run("rebuild", func(t *testing.T) {
		c, meta, armed := setup(t)
		if _, st, _, err := c.ParallelScan("ds", rec); err != nil || st.Read.Corrupt != 0 {
			t.Fatalf("degraded scan: err %v, stats %+v", err, st)
		}
		recBefore, parityBefore := c.Acct.Time("recover.reconstruct"), c.Devices[4].Acct.Bytes("p2p.read")
		spare := newDevice(t)
		c.AttachSpare(spare)
		*armed = true
		if _, err := c.Rebuild("ds"); err != nil {
			t.Fatalf("rebuild with one rejected decode: %v", err)
		}
		if *armed {
			t.Fatal("Verify never saw the decoded stripe")
		}
		if got, want := c.Acct.Bytes("recover.rebuild.read"), meta.lenOf(0)+meta.lenOf(2)+meta.lenOf(3)+2*meta.stripeLen; got != want {
			t.Fatalf("recover.rebuild.read = %d bytes, want the data sources once and the parity twice (%d)", got, want)
		}
		twoDecodes(t, c, meta, recBefore, parityBefore)
		if c.Devices[1] != spare {
			t.Fatal("the spare was not swapped into slot 1")
		}
		shards, st, _, err := c.ParallelScan("ds", rec)
		if err != nil || st.DegradedReads != 0 || !bytes.Equal(reassemble(shards), img) {
			t.Fatalf("scan after the rebuild: err %v, stats %+v", err, st)
		}
	})
}
