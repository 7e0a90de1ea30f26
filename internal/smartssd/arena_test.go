package smartssd

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"nessa/internal/faults"
	"nessa/internal/storage"
)

// dirtyArena overwrites every arena slot to its full capacity — the
// state a slot is in after it held something longer than the stripe it
// serves next (another dataset's stripe, a parity pull, a decode
// output). Payload bytes are rewritten by the next read; the bytes past
// a short stripe's length are not, unless the decode path re-zeroes
// them. Each slot gets its own pattern: with XOR-like parity rows,
// identical garbage in two slots would cancel out of the decode.
func dirtyArena(c *Cluster) {
	for gi, b := range c.arena {
		b = b[:cap(b)]
		for i := range b {
			b[i] = byte(0x5B + 31*gi + i)
		}
	}
}

// TestScanArenaLifetimeAndTailZeroing walks one cluster through its
// whole life with uneven stripes (10 records over 3 data shards: 3, 3
// and 4, so two slots hold payloads shorter than the coding stripe):
// clean scan, loss of a data device, two back-to-back degraded scans,
// rebuild onto a spare, clean scan, loss of a second device, degraded
// scan. Both losses take the drive holding the long stripe: GF math is
// position-wise, so a short survivor's stale tail corrupts exactly the
// bytes only the long stripe has. After every scan each payload must
// equal the stripe that was stored — the arena is dirtied before most
// of them, so a decode that pads a short stripe without re-zeroing its
// tail reconstructs garbage — and every payload must sit where that
// member's first payload sat.
func TestScanArenaLifetimeAndTailZeroing(t *testing.T) {
	const rec = 64
	place := Placement{DataShards: 3, ParityShards: 2}
	c, err := NewCluster(place.Total())
	if err != nil {
		t.Fatal(err)
	}
	img := stripeImg(10, rec)
	counts, err := c.StripeDataset("ds", img, rec, place)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(counts))
	off := int64(0)
	for i, n := range counts {
		want[i] = img[off : off+int64(n)*rec]
		off += int64(n) * rec
	}
	const long = 2 // the member whose stripe is longer than the others'
	if len(want[long]) <= len(want[0]) || len(want[long]) <= len(want[1]) {
		t.Fatalf("stripe %d is not the long one (%v records)", long, counts)
	}

	home := make([]*byte, len(counts))
	scan := func(step string, degraded int) {
		t.Helper()
		shards, st, _, err := c.ParallelScan("ds", rec)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if st.DegradedReads != degraded {
			t.Fatalf("%s: %d degraded reads, want %d", step, st.DegradedReads, degraded)
		}
		for i, s := range shards {
			if !bytes.Equal(s, want[i]) {
				t.Fatalf("%s: stripe %d differs from what was stored", step, i)
			}
			if home[i] == nil {
				home[i] = &s[0]
			} else if home[i] != &s[0] {
				t.Fatalf("%s: stripe %d moved to a different backing array", step, i)
			}
		}
	}

	scan("first clean scan", 0)
	dirtyArena(c)
	scan("clean scan over a dirty arena", 0)

	c.SetInjector(faults.NewInjector(faults.Profile{Seed: 3, Kills: []faults.DeviceKill{{Device: long, AfterScans: 1}}}))
	dirtyArena(c)
	scan("first degraded scan", 1)
	scan("second degraded scan, straight after", 1)

	spare := newDevice(t)
	c.AttachSpare(spare)
	dirtyArena(c)
	if _, err := c.Rebuild("ds"); err != nil {
		t.Fatal(err)
	}
	if c.Devices[long] != spare || c.DeviceHealth(long) != HealthHealthy {
		t.Fatalf("rebuild did not swap the spare into slot %d", long)
	}
	// The rebuilt stripe was decoded into the arena, which the next
	// scan overwrites: the spare must hold a copy of it, not the slot.
	dirtyArena(c)
	if got, _, err := spare.SSD.ReadAt("ds", 0, int64(len(want[long]))); err != nil || !bytes.Equal(got, want[long]) {
		t.Fatalf("the spare does not hold stripe %d (err %v)", long, err)
	}
	scan("clean scan after rebuild", 0)

	// The second loss is the spare that was just swapped in.
	c.SetInjector(faults.NewInjector(faults.Profile{Seed: 3, Kills: []faults.DeviceKill{{Device: spare.ID, AfterScans: 1}}}))
	dirtyArena(c)
	scan("degraded scan after a second loss", 1)
	scan("and once more", 1)
}

// TestCleanScanAllocBudget: once the arena has grown, a clean striped
// scan moves every byte through it and allocates only its few slice
// headers. The stripes are 64 KB, so one stray stripe copy is sixteen
// times the budget.
func TestCleanScanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not measurable under the race detector")
	}
	const rec = 64
	place := Placement{DataShards: 4, ParityShards: 2}
	c, err := NewCluster(place.Total())
	if err != nil {
		t.Fatal(err)
	}
	c.Verify = func(b []byte) error { return nil }
	if _, err := c.StripeDataset("ds", stripeImg(4096, rec), rec, place); err != nil {
		t.Fatal(err)
	}
	scan := func() {
		if _, _, _, err := c.ParallelScan("ds", rec); err != nil {
			t.Fatal(err)
		}
	}
	scan() // grows the arena
	const runs = 16
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&m1)
	if perScan := (m1.TotalAlloc - m0.TotalAlloc) / runs; perScan >= 4096 {
		t.Fatalf("steady-state clean scan allocates %d B, budget is < 4096 B", perScan)
	}
}

// TestRebuildSpareSwapIsAtomic: a spare whose write fails must not
// vanish. The slot stays lost, the pool keeps its size and the error
// comes back; the failed spare goes to the back of the pool, so with a
// second spare attached the retry succeeds.
func TestRebuildSpareSwapIsAtomic(t *testing.T) {
	const rec = 64
	tiny := func(t *testing.T) *Device {
		d := newDevice(t)
		cfg := storage.DefaultConfig()
		cfg.Capacity = rec // below any stripe's length
		ssd, err := storage.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.SSD = ssd
		return d
	}
	cases := []struct {
		name      string
		spares    []func(*testing.T) *Device
		retryWins bool
	}{
		{"only an undersized spare", []func(*testing.T) *Device{tiny}, false},
		{"undersized spare ahead of a good one", []func(*testing.T) *Device{tiny, newDevice}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := NewCluster(4)
			img := stripeImg(12, rec)
			if _, err := c.StripeDataset("ds", img, rec, Placement{DataShards: 3, ParityShards: 1}); err != nil {
				t.Fatal(err)
			}
			c.SetInjector(faults.NewInjector(faults.Profile{Seed: 5, Kills: []faults.DeviceKill{{Device: 1, AfterScans: 1}}}))
			for i := 0; i < 2; i++ {
				if _, _, _, err := c.ParallelScan("ds", rec); err != nil {
					t.Fatal(err)
				}
			}
			var spares []*Device
			for _, mk := range tc.spares {
				d := mk(t)
				c.AttachSpare(d)
				spares = append(spares, d)
			}
			devices := append([]*Device(nil), c.Devices...)

			_, err := c.Rebuild("ds")
			if err == nil || !strings.Contains(err.Error(), "device full") {
				t.Fatalf("rebuild onto an undersized spare: err = %v, want the write failure", err)
			}
			if c.Spares() != len(spares) {
				t.Fatalf("Spares = %d after a failed rebuild, want %d: the spare leaked out of the pool", c.Spares(), len(spares))
			}
			for gi, d := range devices {
				if c.Devices[gi] != d {
					t.Fatalf("Devices[%d] changed across a failed rebuild", gi)
				}
			}
			if got := c.DeviceHealth(1); got != HealthLost {
				t.Fatalf("slot 1 health = %v after a failed rebuild, want lost", got)
			}

			_, err = c.Rebuild("ds")
			if !tc.retryWins {
				if err == nil {
					t.Fatal("retry with only the undersized spare succeeded")
				}
				return
			}
			if err != nil {
				t.Fatalf("retry with a good spare attached: %v", err)
			}
			if c.Devices[1] != spares[1] || c.DeviceHealth(1) != HealthHealthy || c.Spares() != 1 {
				t.Fatalf("retry did not swap the good spare in (spares left %d, health %v)", c.Spares(), c.DeviceHealth(1))
			}
			shards, st, _, err := c.ParallelScan("ds", rec)
			if err != nil || st.DegradedReads != 0 || !bytes.Equal(reassemble(shards), img) {
				t.Fatalf("scan after the retried rebuild: err %v, stats %+v", err, st)
			}
		})
	}
}
