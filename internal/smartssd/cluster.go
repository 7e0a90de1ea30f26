package smartssd

import (
	"errors"
	"fmt"
	"time"

	"nessa/internal/faults"
	"nessa/internal/simtime"
)

// Cluster models the paper's stated future work (§5): scaling NeSSA
// over multiple SmartSSDs feeding a shared GPU pool. The dataset is
// sharded record-wise across drives; each FPGA scans its local shard,
// the controller selects over the scanned records (core.Options.Cluster),
// and only the selected subset crosses the host interconnect.
//
// StripeDataset places a dataset as k data stripes plus m Reed–Solomon
// parity stripes (ShardDataset is the k+0 placement over every drive).
// With m > 0 whole-device loss is survivable: ParallelScan reconstructs
// a lost device's stripe from the survivors, and Rebuild re-materializes
// it onto a spare (DESIGN.md §4.11).
type Cluster struct {
	Devices []*Device

	// Verify, when non-nil, validates every scanned (or reconstructed)
	// data-shard payload — typically the codec's per-record CRC check.
	// Parity stripes are raw coding bytes, never records, so Verify is
	// not applied to them.
	Verify func([]byte) error
	// Acct accumulates cluster-level (host-side) recovery costs under
	// the "recover.*" buckets: parity bytes pulled for reconstruction,
	// reconstructed payload bytes, and GF-math time.
	Acct *simtime.Accountant

	health   []Health
	stripes  map[string]*stripeMeta
	spares   []*Device
	nextID   int
	lostEver int

	// arena is the scan arena: one reusable buffer per device slot,
	// grown lazily, never shrunk, and only for bytes the host writes (a
	// lost member's decode, a short survivor's padded copy; see slot).
	// Clean reads are views of the stored stripes, so a steady-state
	// scan allocates only slice headers.
	arena [][]byte
}

// DefaultReconstructBW is the modeled throughput of the GF(256)
// reconstruction math in bytes/second of source streamed: what an FPGA
// kernel or a host SIMD (PSHUFB split-table) decode sustains on one
// core. It is a model of the device the paper assumes, not a
// measurement, so simulated clocks do not depend on the host. The
// erasure package's own kernel is such a split-table decode on a CPU
// with AVX2 (its one vector tier, chosen by CPU detection alone) and
// the portable row-table loops everywhere else; bench-recovery prints
// the measured figure next to this one (a one-loss 4+2 decode read
// 16,990 MB/s on AVX2 and 1,529 on the row tables, in the same minutes
// on one 2-CPU Xeon container).
const DefaultReconstructBW = 6e9

// NewCluster assembles n independent SmartSSDs with unique device IDs.
func NewCluster(n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("smartssd: cluster needs at least one device, got %d", n)
	}
	c := &Cluster{
		Acct:    simtime.NewAccountant(),
		health:  make([]Health, n),
		stripes: make(map[string]*stripeMeta),
		nextID:  n,
		arena:   make([][]byte, n),
	}
	for i := 0; i < n; i++ {
		d, err := New()
		if err != nil {
			return nil, err
		}
		d.ID = i
		c.Devices = append(c.Devices, d)
	}
	return c, nil
}

// SetInjector attaches one shared fault injector to every device (and
// its flash array). Scans issue device operations in a fixed order, so
// a shared seeded injector still yields a reproducible schedule.
func (c *Cluster) SetInjector(in *faults.Injector) {
	for _, d := range c.Devices {
		d.SetInjector(in)
	}
}

// ShardDataset splits a record-aligned dataset image across every
// device with no redundancy — the k+0 placement, k = len(Devices) — and
// returns the per-device record counts. A lost device takes its
// records with it; give StripeDataset parity shards for a placement
// that survives device loss.
func (c *Cluster) ShardDataset(name string, img []byte, recordSize int64) ([]int, error) {
	return c.StripeDataset(name, img, recordSize, Placement{DataShards: len(c.Devices)})
}

// ScanStats aggregates what the recovery machinery did across one
// cluster scan: the per-shard resilient-read stats summed, and how much
// was served by parity reconstruction instead of a lost device.
type ScanStats struct {
	Read               ReadStats // per-shard recovery-loop stats, summed
	Reissues           int       // always 0: a scan never re-issues a shard
	DegradedReads      int       // stripes served via parity reconstruction
	ReconstructedBytes int64     // payload bytes rebuilt from parity
}

// ParallelScan reads every data stripe of name — placed by
// StripeDataset or ShardDataset — to its device's FPGA over the P2P
// links. Each device runs on its own simulated clock, so the modeled
// scan is parallel in simulated time even though the host loop issues
// the reads serially; the returned wall duration is the slowest
// device's elapsed time — the cluster's selection-scan latency. It also
// returns the per-stripe payloads (data only, never parity) and the
// aggregated recovery stats.
//
// The payloads are read-only views, not copies: of the bytes a device
// stores when read clean, of the cluster's scan arena when rebuilt. An
// arena view stays valid until the next ParallelScan or Rebuild on
// this cluster; a caller that needs the bytes longer copies them out.
//
// Each per-stripe read runs under the resilient recovery loop (retry on
// transient faults, host-path fallback on link drops, Verify-driven
// corruption re-reads); an injected stall lengthens its device's clock
// and so the returned wall.
//
// A device lost mid-scan does not fail the scan while the placement's
// parity covers it: its stripe is reconstructed from the surviving
// peers' parity (up to ParityShards concurrent losses), with the extra
// parity traffic and GF-math time charged to the cluster's "recover.*"
// buckets and the stats reporting the degraded reads. Past that budget
// — any loss at all under k+0 — the scan fails with an error wrapping
// faults.ErrDeviceLost.
func (c *Cluster) ParallelScan(name string, recordSize int64) ([][]byte, ScanStats, time.Duration, error) {
	var st ScanStats
	if recordSize <= 0 {
		return nil, st, 0, fmt.Errorf("smartssd: record size %d must be positive", recordSize)
	}
	meta := c.stripes[name]
	if meta == nil {
		return nil, st, 0, fmt.Errorf("smartssd: %q was not placed on this cluster", name)
	}
	if recordSize != meta.rec {
		return nil, st, 0, fmt.Errorf("smartssd: scan of %q with record size %d, but it was striped at %d",
			name, recordSize, meta.rec)
	}
	k, m := meta.place.DataShards, meta.place.ParityShards
	group := k + m
	starts := c.clocks(group)
	data := make([][]byte, k)
	var lost []int
	for i := 0; i < k; i++ {
		if c.health[i] == HealthLost {
			lost = append(lost, i)
			continue
		}
		buf, rst, err := c.readStripe(i, name, meta)
		st.Read.Add(rst)
		switch {
		case err == nil:
			data[i] = buf
			d := c.Devices[i] // a served stripe draws its shard's stall
			if stall := d.inj.Stall(); stall > 0 {
				d.charge("scan.stall", stall)
			}
		case errors.Is(err, faults.ErrDeviceLost):
			lost = append(lost, i)
		default:
			return nil, st, 0, fmt.Errorf("smartssd: stripe %d: %w", i, err)
		}
	}
	var recT time.Duration
	if len(lost) > 0 {
		if len(lost) > m {
			return nil, st, 0, fmt.Errorf("smartssd: %d data stripes of %q lost with only %d parity stripes: %w",
				len(lost), name, m, faults.ErrDeviceLost)
		}
		shards := make([][]byte, group)
		copy(shards, data)
		var err error
		if lost, recT, err = c.recoverStripes(name, meta, shards, lost, "recover.parity", &st); err != nil {
			return nil, st, 0, err
		}
		for _, i := range lost {
			data[i] = shards[i][:meta.lenOf(i)]
			st.DegradedReads++
			st.ReconstructedBytes += meta.lenOf(i)
			c.Acct.AddBytes("recover.rebuilt", meta.lenOf(i))
		}
	}
	wall := c.since(starts) + recT
	c.bumpScans()
	return data, st, wall, nil
}

// clocks snapshots the clocks of the first n device slots.
func (c *Cluster) clocks(n int) []time.Duration {
	starts := make([]time.Duration, n)
	for gi := range starts {
		starts[gi] = c.Devices[gi].Clock.Now()
	}
	return starts
}

// since reports the furthest any of those slots' clocks has advanced
// from its snapshot: the wall of the work the devices did in parallel.
func (c *Cluster) since(starts []time.Duration) time.Duration {
	var wall time.Duration
	for gi, t0 := range starts {
		wall = max(wall, c.Devices[gi].Clock.Now()-t0)
	}
	return wall
}

// slot returns device slot gi's arena buffer, emptied, with capacity
// for at least n bytes. Slots are addressed by position in Devices, so
// a spare swapped in by Rebuild inherits the slot of the drive it
// replaces. Bytes past the returned slice's length are whatever the
// slot last held. A stripe read takes its slot with n = 0
// (readStripe); a decode takes it at the stripe length (recoverStripes).
func (c *Cluster) slot(gi int, n int64) []byte {
	if int64(cap(c.arena[gi])) < n {
		c.arena[gi] = make([]byte, 0, n)
	}
	return c.arena[gi][:0]
}

// bumpScans records one completed cluster scan on every member device
// — the trigger count for scripted DeviceKill{AfterScans} schedules.
func (c *Cluster) bumpScans() {
	for _, d := range c.Devices {
		d.Scans++
	}
}

// TotalBytes sums a byte bucket across all devices.
func (c *Cluster) TotalBytes(bucket string) int64 {
	var n int64
	for _, d := range c.Devices {
		n += d.Acct.Bytes(bucket)
	}
	return n
}

// MaxClock reports the furthest-advanced device clock — the cluster's
// wall-clock time under perfect parallelism.
func (c *Cluster) MaxClock() time.Duration {
	var m time.Duration
	for _, d := range c.Devices {
		if now := d.Clock.Now(); now > m {
			m = now
		}
	}
	return m
}
