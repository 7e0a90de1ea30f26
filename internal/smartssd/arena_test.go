package smartssd

import (
	"bytes"
	"runtime"
	"slices"
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
// and 4, so two members store stripes shorter than the coding stripe):
// clean scan, loss of a data device, two back-to-back degraded scans,
// rebuild onto a spare, clean scan, loss of a second device, degraded
// scan. Both losses take the drive holding the long stripe: GF math is
// position-wise, so a short survivor's stale padding corrupts exactly
// the bytes only the long stripe has. After every scan each payload
// must equal the stripe that was stored — the arena is dirtied before
// most of them, so a decode that pads a short stripe without
// re-zeroing its tail reconstructs garbage. Every stripe read clean
// must be a capacity-clipped view of the bytes its drive stores, and
// the reconstructed stripe must sit in the lost member's arena slot,
// at the same address every time.
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
	home := make([]*byte, len(counts)) // where a clean read of each member lands
	off := int64(0)
	for i, n := range counts {
		want[i] = img[off : off+int64(n)*rec]
		home[i] = &want[i][0]
		off += int64(n) * rec
	}
	const long = 2 // the member whose stripe is longer than the others'
	if len(want[long]) <= len(want[0]) || len(want[long]) <= len(want[1]) {
		t.Fatalf("stripe %d is not the long one (%v records)", long, counts)
	}

	var decoded *byte // where the lost member's stripe is reconstructed
	scan := func(step string, lost int) {
		t.Helper()
		shards, st, _, err := c.ParallelScan("ds", rec)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		degraded := 0
		if lost >= 0 {
			degraded = 1
		}
		if st.DegradedReads != degraded {
			t.Fatalf("%s: %d degraded reads, want %d", step, st.DegradedReads, degraded)
		}
		for i, s := range shards {
			if !bytes.Equal(s, want[i]) {
				t.Fatalf("%s: stripe %d differs from what was stored", step, i)
			}
			switch {
			case i != lost:
				if &s[0] != home[i] || cap(s) != len(s) {
					t.Fatalf("%s: stripe %d is not a capacity-clipped view of the bytes its drive stores", step, i)
				}
			case &s[0] != &c.arena[i][:1][0]:
				t.Fatalf("%s: reconstructed stripe %d is not in its arena slot", step, i)
			case decoded == nil:
				decoded = &s[0]
			case decoded != &s[0]:
				t.Fatalf("%s: reconstructed stripe %d moved to a different backing array", step, i)
			}
		}
	}

	scan("first clean scan", -1)
	dirtyArena(c)
	scan("clean scan over a dirty arena", -1)

	c.SetInjector(faults.NewInjector(faults.Profile{Seed: 3, Kills: []faults.DeviceKill{{Device: long, AfterScans: 1}}}))
	dirtyArena(c)
	scan("first degraded scan", long)
	scan("second degraded scan, straight after", long)

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
	got, _, err := spare.SSD.ReadAt("ds", 0, int64(len(want[long])))
	if err != nil || !bytes.Equal(got, want[long]) {
		t.Fatalf("the spare does not hold stripe %d (err %v)", long, err)
	}
	home[long] = &got[0]
	scan("clean scan after rebuild", -1)

	// The second loss is the spare that was just swapped in.
	c.SetInjector(faults.NewInjector(faults.Profile{Seed: 3, Kills: []faults.DeviceKill{{Device: spare.ID, AfterScans: 1}}}))
	dirtyArena(c)
	scan("degraded scan after a second loss", long)
	scan("and once more", long)
}

// TestArenaGrowsOnlyForDecodeWrites: the arena holds only bytes the
// host writes. A clean scan of a fresh 4+2 cluster grows no slot, since
// every payload is a view of a stored stripe. A degraded scan over
// even stripes grows only the lost members' slots, for their decode
// outputs. With a record count that is not a multiple of k (4,097:
// three stripes of 1,024 records and one of 1,025), each short
// survivor's zero-padded copy grows its slot too, the full-length one
// is read where it lies, and the decode stays bit-exact.
func TestArenaGrowsOnlyForDecodeWrites(t *testing.T) {
	const rec = 64
	place := Placement{DataShards: 4, ParityShards: 2}
	cases := []struct {
		name    string
		records int
		lost    []int // data members killed after the clean scan
		grown   []int // the slots the degraded scan must grow
	}{
		{"clean", 4096, nil, nil},
		{"even stripes, two members lost", 4096, []int{1, 3}, []int{1, 3}},
		{"short stripes, the long member lost", 4097, []int{3}, []int{0, 1, 2, 3}},
		{"short stripes, two short members lost", 4097, []int{0, 1}, []int{0, 1, 2}},
	}
	grownSlots := func(c *Cluster) []int {
		var gs []int
		for gi, b := range c.arena {
			if cap(b) > 0 {
				gs = append(gs, gi)
			}
		}
		return gs
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(place.Total())
			if err != nil {
				t.Fatal(err)
			}
			img := stripeImg(tc.records, rec)
			if _, err := c.StripeDataset("ds", img, rec, place); err != nil {
				t.Fatal(err)
			}
			shards, _, _, err := c.ParallelScan("ds", rec)
			if err != nil || !bytes.Equal(reassemble(shards), img) {
				t.Fatalf("clean scan: err %v or payload differs from the image", err)
			}
			if gs := grownSlots(c); len(gs) != 0 {
				t.Fatalf("a clean scan grew arena slots %v", gs)
			}
			if len(tc.lost) == 0 {
				return
			}
			var kills []faults.DeviceKill
			for _, i := range tc.lost {
				kills = append(kills, faults.DeviceKill{Device: i, AfterScans: 1})
			}
			c.SetInjector(faults.NewInjector(faults.Profile{Seed: 4, Kills: kills}))
			shards, st, _, err := c.ParallelScan("ds", rec)
			if err != nil || st.DegradedReads != len(tc.lost) {
				t.Fatalf("degraded scan: err %v, %d degraded reads, want %d", err, st.DegradedReads, len(tc.lost))
			}
			if !bytes.Equal(reassemble(shards), img) {
				t.Fatal("the degraded scan did not reconstruct the image bit for bit")
			}
			if gs := grownSlots(c); !slices.Equal(gs, tc.grown) {
				t.Fatalf("the degraded scan grew arena slots %v, want %v", gs, tc.grown)
			}
		})
	}
}

// TestCleanScanAllocBudget: a clean striped scan returns views of the
// stored stripes and allocates only its few slice headers. The stripes
// are 64 KB, so one stray stripe copy is sixteen times the budget.
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
	scan() // warm-up
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
