package core

import (
	"hash/fnv"
	"testing"

	"nessa/internal/data"
	"nessa/internal/faults"
	"nessa/internal/smartssd"
)

// storedHash is the FNV-1a hash of the "ds" object d's flash array
// stores, read with no injector so no fault touches the read.
func storedHash(t *testing.T, d *smartssd.Device) uint64 {
	t.Helper()
	d.SSD.SetInjector(nil)
	size, err := d.SSD.Size("ds")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := d.SSD.ReadAt("ds", 0, size)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestRunNeverWritesTheStoredImage: a drive keeps the image it was
// given, and a clean read returns a view of those bytes, so a host
// write through a payload (a padded stripe, a decode, a corrupted
// re-read) would change what every later scan reads. Every stored
// object — data stripes, parity stripes and the stripe a rebuild put
// on the spare — is hashed before and after a chaos run on a 4+2
// cluster with uneven stripes that loses two data devices, one of them
// rebuilt onto the spare, and a chaos streaming run on one device.
// The hashes must not move, and the spare must hold exactly the stripe
// of the drive it replaced.
func TestRunNeverWritesTheStoredImage(t *testing.T) {
	chaos := func(kills ...faults.DeviceKill) *faults.Injector {
		p := faults.DefaultChaosProfile()
		p.Seed, p.Kills = 44, kills
		return faults.NewInjector(p)
	}

	t.Run("cluster 4+2, chaos, two losses, auto-rebuild", func(t *testing.T) {
		spec := tinySpec()
		spec.SimTrain = 601 // stripes of 150, 150, 150 and 151 records
		tr, te := data.Generate(spec)
		img, err := data.Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := smartssd.NewCluster(6)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.StripeDataset("ds", img, spec.BytesPerImage, smartssd.Placement{DataShards: 4, ParityShards: 2}); err != nil {
			t.Fatal(err)
		}
		spare, err := smartssd.New()
		if err != nil {
			t.Fatal(err)
		}
		c.AttachSpare(spare)
		members := append([]*smartssd.Device(nil), c.Devices...)
		before := make([]uint64, len(members))
		for gi, d := range members {
			before[gi] = storedHash(t, d)
		}
		opt := clusterOptions(c)
		opt.AutoRebuild = true
		opt.Injector = chaos(faults.DeviceKill{Device: 3, AfterScans: 2}, faults.DeviceKill{Device: 1, AfterScans: 5})
		rep, err := Run(tr, te, tinyCfg(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Recovery.DevicesLost != 2 || rep.Recovery.RebuildTime <= 0 || c.Devices[3] != spare {
			t.Fatalf("the run did not lose two devices and rebuild the first onto the spare: %+v", rep.Recovery)
		}
		if rep.Faults.CorruptDetected == 0 || rep.Faults.Retries == 0 {
			t.Fatalf("the chaos schedule fired no corruption or retry: %+v", rep.Faults)
		}
		for gi, d := range members {
			if got := storedHash(t, d); got != before[gi] {
				t.Errorf("member %d's stored stripe changed during the run", gi)
			}
		}
		if got := storedHash(t, spare); got != before[3] {
			t.Error("the spare does not hold the stripe of the drive it replaced")
		}
	})

	t.Run("streaming on one device, chaos", func(t *testing.T) {
		tr, te, dev := faultRig(t)
		before := storedHash(t, dev)
		opt := matrixOptions("streaming", 2)
		opt.Device, opt.DatasetName = dev, "ds"
		opt.Injector = chaos()
		rep, err := Run(tr, te, matrixCfg("streaming"), opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Faults.CorruptDetected == 0 {
			t.Fatalf("the chaos schedule fired no corruption: %+v", rep.Faults)
		}
		if storedHash(t, dev) != before {
			t.Error("the stored image changed during the run")
		}
	})
}
