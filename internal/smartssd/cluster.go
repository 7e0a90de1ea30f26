package smartssd

import (
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

	// ShardDeadline, when positive, bounds the simulated time one
	// shard may spend on its scan before the host declares it a
	// straggler and re-issues the read (§4.6). Zero disables the
	// deadline.
	ShardDeadline time.Duration
	// MaxReissue caps straggler re-issues per shard before the scan
	// fails with faults.ErrShardTimeout. Zero means 2.
	MaxReissue int
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
	// grown lazily and never shrunk. Scans, degraded reconstruction and
	// Rebuild all move their bytes through it (see slot), so a
	// steady-state scan allocates only slice headers, and the payloads
	// handed to the caller are views into it.
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
		stripes: make(map[string]*stripeMeta),
	}
	for i := 0; i < n; i++ {
		d, err := New()
		if err != nil {
			return nil, err
		}
		d.ID = i
		c.Devices = append(c.Devices, d)
	}
	c.health = make([]Health, n)
	c.nextID = n
	return c, nil
}

// Size reports the number of devices.
func (c *Cluster) Size() int { return len(c.Devices) }

// SetInjector attaches one shared fault injector to every device (and
// its flash array). Scans issue device operations in a fixed order, so
// a shared seeded injector still yields a reproducible schedule.
func (c *Cluster) SetInjector(in *faults.Injector) {
	for _, d := range c.Devices {
		d.SetInjector(in)
	}
}

// ShardDataset splits a record-aligned dataset image across every
// device with no redundancy — the k+0 placement, k = Size() — and
// returns the per-device record counts. A lost device takes its
// records with it; give StripeDataset parity shards for a placement
// that survives device loss.
func (c *Cluster) ShardDataset(name string, img []byte, recordSize int64) ([]int, error) {
	return c.StripeDataset(name, img, recordSize, Placement{DataShards: len(c.Devices)})
}

// ScanStats aggregates what the recovery machinery did across one
// cluster scan: the per-shard resilient-read stats summed, straggler
// re-issues, and how much was served by parity reconstruction instead
// of a lost device.
type ScanStats struct {
	Read               ReadStats // per-shard recovery-loop stats, summed
	Reissues           int       // straggler re-issues across shards
	DegradedReads      int       // stripes served via parity reconstruction
	ReconstructedBytes int64     // payload bytes rebuilt from parity
}

// Add accumulates other into s.
func (s *ScanStats) Add(other ScanStats) {
	s.Read.Add(other.Read)
	s.Reissues += other.Reissues
	s.DegradedReads += other.DegradedReads
	s.ReconstructedBytes += other.ReconstructedBytes
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
// The payloads are views into the cluster's scan arena, not copies:
// they stay valid until the next ParallelScan or Rebuild on this
// cluster, which overwrite them in place. A caller that needs the bytes
// longer copies them out.
//
// Each per-stripe read runs under the resilient recovery loop (retry on
// transient faults, host-path fallback on link drops, Verify-driven
// corruption re-reads). When ShardDeadline is set, a stripe whose scan
// — including injected stalls — exceeds the deadline is treated as a
// straggler and re-issued up to MaxReissue times; a stripe that still
// misses its deadline fails the scan with an error wrapping
// faults.ErrShardTimeout.
//
// A device lost mid-scan does not fail the scan while the placement's
// parity covers it: its stripe is reconstructed from the surviving
// peers' parity (up to ParityShards concurrent losses), with the extra
// parity traffic and GF-math time charged to the cluster's "recover.*"
// buckets and the stats reporting the degraded reads. Past that budget
// — any loss at all under k+0 — the scan fails with an error wrapping
// faults.ErrDeviceLost.
func (c *Cluster) ParallelScan(name string, recordSize int64) ([][]byte, ScanStats, time.Duration, error) {
	if recordSize <= 0 {
		return nil, ScanStats{}, 0, fmt.Errorf("smartssd: record size %d must be positive", recordSize)
	}
	meta := c.stripes[name]
	if meta == nil {
		return nil, ScanStats{}, 0, fmt.Errorf("smartssd: %q was not placed on this cluster", name)
	}
	return c.stripedScan(name, recordSize, meta)
}

// slot returns device slot gi's arena buffer, emptied, with capacity
// for at least n bytes. Slots are addressed by position in Devices, so
// a spare swapped in by Rebuild inherits the slot of the drive it
// replaces. Bytes past the returned slice's length are whatever the
// slot last held; padInPlace re-zeroes them where the coding math reads
// them.
func (c *Cluster) slot(gi int, n int64) []byte {
	if len(c.arena) < len(c.Devices) {
		c.arena = append(c.arena, make([][]byte, len(c.Devices)-len(c.arena))...)
	}
	if int64(cap(c.arena[gi])) < n {
		c.arena[gi] = make([]byte, 0, n)
	}
	return c.arena[gi][:0]
}

// scanShard runs one device's stripe scan under the deadline/re-issue
// policy, accumulating recovery stats into st. The payload lands in
// the device's arena slot, which is given at least minCap bytes of
// capacity (the coding stripe length, so a short stripe can later be
// padded in place).
func (c *Cluster) scanShard(i int, d *Device, name string, recordSize, minCap int64, verify func([]byte) error, st *ScanStats) ([]byte, error) {
	size, err := d.SSD.Size(name)
	if err != nil {
		return nil, err
	}
	if size > minCap {
		minCap = size
	}
	reissues := c.MaxReissue
	if reissues <= 0 {
		reissues = 2
	}
	for issue := 0; ; issue++ {
		before := d.Clock.Now()
		buf, rst, err := d.ReadResilientInto(c.slot(i, minCap), name, 0, size, int(size/recordSize), verify, RetryPolicy{})
		st.Read.Add(rst)
		if err != nil {
			return nil, err
		}
		if stall := d.Injector.Stall(); stall > 0 {
			d.Clock.Advance(stall)
			d.Acct.AddTime("scan.stall", stall)
		}
		// The deadline applies per issue; the shard's wall cost still
		// accumulates every abandoned straggler issue.
		if dt := d.Clock.Now() - before; c.ShardDeadline <= 0 || dt <= c.ShardDeadline {
			return buf, nil
		}
		if issue == reissues {
			return nil, fmt.Errorf("smartssd: shard missed %v deadline on %d issues: %w",
				c.ShardDeadline, issue+1, faults.ErrShardTimeout)
		}
		// Straggler: drop the slow issue and read the shard again.
		st.Reissues++
	}
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
