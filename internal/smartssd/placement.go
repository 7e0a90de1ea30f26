package smartssd

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"nessa/internal/erasure"
	"nessa/internal/faults"
)

// This file is the cluster's durability layer (DESIGN.md §4.11):
// Reed–Solomon striped placement across devices, the per-device loss
// state, degraded scans that reconstruct a lost device's
// stripe from its surviving peers, and background rebuild onto spares.

// Placement configures striping: a dataset is split into DataShards
// record stripes with ParityShards parity stripes, laid out on the
// cluster's first DataShards+ParityShards devices. Any ParityShards
// concurrent whole-device losses are survivable; with ParityShards = 0
// the placement is plain sharding and any loss is fatal.
type Placement struct {
	DataShards   int
	ParityShards int
}

// Total reports the device count the placement occupies.
func (p Placement) Total() int { return p.DataShards + p.ParityShards }

func (p Placement) validate(devices int) error {
	if p.DataShards < 1 || p.ParityShards < 0 {
		return fmt.Errorf("smartssd: placement needs at least 1 data shard and a non-negative parity count, got %d+%d",
			p.DataShards, p.ParityShards)
	}
	if p.Total() > devices {
		return fmt.Errorf("smartssd: placement %d+%d needs %d devices, cluster has %d",
			p.DataShards, p.ParityShards, p.Total(), devices)
	}
	return nil
}

// Health is a device slot's loss state. A read error wrapping
// faults.ErrDeviceLost moves the slot to HealthLost, which holds until
// a Rebuild swaps a spare into it.
type Health int

const (
	HealthHealthy Health = iota
	HealthLost
)

// String renders the state for reports and errors.
func (h Health) String() string {
	if h == HealthLost {
		return "lost"
	}
	return "healthy"
}

// stripeMeta records how StripeDataset laid a dataset out.
type stripeMeta struct {
	place     Placement
	rec       int64         // record size the stripes are aligned to
	counts    []int         // records per data stripe
	stripeLen int64         // padded stripe length (record multiple)
	code      *erasure.Code // the (DataShards, ParityShards) RS code; nil without parity
}

// lenOf reports the true stored byte length of group member gi's
// stripe object: data stripes are stored unpadded, parity stripes are
// full coding stripes.
func (m *stripeMeta) lenOf(gi int) int64 {
	if gi < m.place.DataShards {
		return int64(m.counts[gi]) * m.rec
	}
	return m.stripeLen
}

// StripeDataset lays a record-aligned dataset image out across the
// cluster: the records are split into p.DataShards contiguous stripes
// on devices [0, DataShards) (stripe i holds records [i·n/k, (i+1)·n/k)),
// and p.ParityShards Reed–Solomon parity stripes are computed over them
// (stripes zero-padded to the longest stripe's length for the coding
// math) and stored on devices [DataShards, Total()). It returns the
// per-data-device record counts. The data stripes are views into img,
// which the devices keep: do not modify img afterwards.
//
// The parity encode's GF-math time is charged to the cluster
// accountant's "stripe.encode" bucket — with no parity there is no
// encode and no charge; each stripe write is charged to its device like
// any StoreDataset.
func (c *Cluster) StripeDataset(name string, img []byte, recordSize int64, p Placement) ([]int, error) {
	if recordSize <= 0 {
		return nil, fmt.Errorf("smartssd: record size %d must be positive", recordSize)
	}
	if int64(len(img))%recordSize != 0 {
		return nil, fmt.Errorf("smartssd: image length %d not a multiple of record size %d", len(img), recordSize)
	}
	if err := p.validate(len(c.Devices)); err != nil {
		return nil, err
	}
	records := int(int64(len(img)) / recordSize)
	k := p.DataShards
	if records < k {
		return nil, fmt.Errorf("smartssd: %d records cannot stripe across %d data shards without empty stripes",
			records, k)
	}
	counts := make([]int, k)
	stripes := make([][]byte, k)
	var stripeLen int64
	for i := 0; i < k; i++ {
		lo := int64(i*records/k) * recordSize
		hi := int64((i+1)*records/k) * recordSize
		if lo == hi {
			return nil, fmt.Errorf("smartssd: striping %d records across %d data shards leaves stripe %d empty",
				records, k, i)
		}
		stripes[i] = img[lo:hi]
		counts[i] = int((hi - lo) / recordSize)
		if hi-lo > stripeLen {
			stripeLen = hi - lo
		}
	}
	var code *erasure.Code
	var parity [][]byte
	if p.ParityShards > 0 {
		var err error
		if code, err = erasure.New(k, p.ParityShards); err != nil {
			return nil, err
		}
		shards := make([][]byte, p.Total())
		for i := 0; i < k; i++ {
			shards[i] = padStripe(stripes[i], stripeLen)
		}
		for r := 0; r < p.ParityShards; r++ {
			shards[k+r] = make([]byte, stripeLen)
		}
		if err := code.Encode(shards); err != nil {
			return nil, fmt.Errorf("smartssd: encoding parity for %q: %w", name, err)
		}
		c.Acct.AddTime("stripe.encode", gfTime(int64(k)*stripeLen*int64(p.ParityShards)))
		parity = shards[k:]
	}
	for i := 0; i < k; i++ {
		if err := c.Devices[i].StoreDataset(name, stripes[i]); err != nil {
			return nil, fmt.Errorf("smartssd: data stripe %d: %w", i, err)
		}
	}
	for r := range parity {
		if err := c.Devices[k+r].StoreDataset(name, parity[r]); err != nil {
			return nil, fmt.Errorf("smartssd: parity stripe %d: %w", r, err)
		}
	}
	c.stripes[name] = &stripeMeta{place: p, rec: recordSize, counts: counts, stripeLen: stripeLen, code: code}
	return counts, nil
}

// parityFor reports the placement metadata of name when it was placed
// with parity — the only placements Rebuild and DegradedScanBound have
// anything to say about.
func (c *Cluster) parityFor(name string) (*stripeMeta, error) {
	meta := c.stripes[name]
	if meta == nil || meta.place.ParityShards == 0 {
		return nil, fmt.Errorf("smartssd: %q has no parity stripes", name)
	}
	return meta, nil
}

// DeviceHealth reports device i's health state.
func (c *Cluster) DeviceHealth(i int) Health { return c.health[i] }

// LostCount reports how many devices the cluster has ever confirmed
// lost (rebuilt slots stay counted — the loss happened).
func (c *Cluster) LostCount() int { return c.lostEver }

// Spares reports how many spare devices are attached and unused.
func (c *Cluster) Spares() int { return len(c.spares) }

// AttachSpare registers a standby device for Rebuild to swap in after
// a loss. The spare gets a fresh cluster-unique ID; its injector, if
// any, is left exactly as the caller configured it.
func (c *Cluster) AttachSpare(d *Device) {
	d.ID = c.nextID
	c.nextID++
	c.spares = append(c.spares, d)
}

// noteLost marks device slot i lost after a read of it failed with
// faults.ErrDeviceLost. The first time, the host also sends the slot a
// liveness probe over the host path. A loss is sticky, so the probe
// always fails; its error is dropped, but its command setup stays on
// the device's clock (host.error), which DegradedScanBound prices.
func (c *Cluster) noteLost(i int, name string) {
	if c.health[i] == HealthLost {
		return
	}
	d := c.Devices[i]
	_ = d.lostCheck(d.Host, "host.error", "host read", name)
	c.health[i] = HealthLost
	c.lostEver++
}

// Rebuild re-materializes every confirmed-lost device's stripe of the
// named striped dataset onto attached spares, swapping each spare into
// the lost slot (back to HealthHealthy). It reads DataShards surviving
// stripes through recoverStripes — advancing those devices' simulated
// clocks, which is exactly how a background rebuild races foreground
// scans for link bandwidth — decodes the missing stripes, and writes
// each onto its spare. Returns the rebuild's simulated duration: the
// furthest any member's clock advanced in the reads (a failed read of
// a member found lost included), plus the GF-math time, plus the
// slowest spare write.
//
// A data member a source read finds lost joins the stripes the Rebuild
// decodes and charges; it takes a spare when one is left after the
// members lost before the Rebuild took theirs, and otherwise stays lost
// for the next Rebuild, as does a parity member found lost.
//
// Rebuild works in the scan arena (a short survivor is padded in its
// own slot, each rebuilt stripe is decoded into the lost member's), so
// it invalidates the arena views of the preceding ParallelScan.
//
// A spare leaves the pool only in the step that puts it into Devices:
// if writing a rebuilt stripe to the spare fails, Rebuild returns the
// error with that slot still lost and the spare still attached, moved
// to the back of the pool so a retry tries any other spare first.
// Slots rebuilt before the failure stay rebuilt.
func (c *Cluster) Rebuild(name string) (time.Duration, error) {
	meta, err := c.parityFor(name)
	if err != nil {
		return 0, err
	}
	k, m := meta.place.DataShards, meta.place.ParityShards
	group := k + m
	var lost []int
	for gi := 0; gi < group; gi++ {
		if c.health[gi] == HealthLost {
			lost = append(lost, gi)
		}
	}
	if len(lost) == 0 {
		return 0, nil
	}
	if len(lost) > m {
		return 0, fmt.Errorf("smartssd: %d of %q's %d stripes lost with %d parity: %w",
			len(lost), name, group, m, faults.ErrDeviceLost)
	}
	if len(lost) > len(c.spares) {
		return 0, fmt.Errorf("smartssd: rebuilding %q needs %d spares, %d attached", name, len(lost), len(c.spares))
	}
	starts := c.clocks(group)
	shards := make([][]byte, group)
	lost, recT, err := c.recoverStripes(name, meta, shards, lost, "recover.rebuild.read", new(ScanStats))
	if err != nil {
		return 0, err
	}
	readWall := c.since(starts)
	var writeWall time.Duration
	for _, gi := range lost[:min(len(lost), len(c.spares))] {
		payload := shards[gi][:meta.lenOf(gi)]
		spare := c.spares[0]
		before := spare.Clock.Now()
		// payload is a view into the scan arena, which the next scan
		// overwrites: the spare keeps a copy.
		if err := spare.StoreDataset(name, bytes.Clone(payload)); err != nil {
			c.spares = append(c.spares[1:], spare)
			return 0, fmt.Errorf("smartssd: writing rebuilt stripe %d of %q to spare device %d: %w",
				gi, name, spare.ID, err)
		}
		writeWall = max(writeWall, spare.Clock.Now()-before)
		c.Acct.AddBytes("recover.rebuilt", int64(len(payload)))
		c.spares = c.spares[1:]
		c.Devices[gi] = spare
		c.health[gi] = HealthHealthy
	}
	return readWall + recT + writeWall, nil
}

// recoverStripes is the one recovery path of ParallelScan and Rebuild:
// it decodes the stripes of the lost members (all HealthLost) of name
// into their arena slots. shards holds, by member, the stripes the
// caller already has; recoverStripes pads those (padded) and reads the
// healthy members it does not hold, in member order, until DataShards
// are held, charging each read's bytes to bucket and its stats to st.
// A data member a read finds lost joins the end of lost, since the
// decode writes its stripe anyway; a parity member found lost is
// skipped and waits for the next Rebuild (the full decode treats a
// parity stripe it did not read alike: a temporary, never charged).
//
// The decode is the data-only one unless a parity member is lost. Each
// lost stripe is a k-term GF dot product over the stripe length,
// k·stripeLen source bytes streamed, charged to recover.reconstruct.
// Every decoded data stripe is then verified: a failure means a parity
// read was silently corrupted in flight (a data read is verified
// itself), so the parity is re-read and the decode repeated once before
// giving up. It returns lost and the GF-math time; the reads advance
// their own devices' clocks.
func (c *Cluster) recoverStripes(name string, meta *stripeMeta, shards [][]byte, lost []int, bucket string, st *ScanStats) ([]int, time.Duration, error) {
	k := meta.place.DataShards
	var recT time.Duration
	const attempts = 2
	for attempt := 1; ; attempt++ {
		held := 0
		for gi := 0; gi < len(shards) && held < k; gi++ {
			if c.health[gi] == HealthLost {
				continue
			}
			if shards[gi] == nil {
				buf, rst, err := c.readStripe(gi, name, meta)
				st.Read.Add(rst)
				if errors.Is(err, faults.ErrDeviceLost) {
					if gi < k {
						lost = append(lost, gi)
					}
					continue
				}
				if err != nil {
					return lost, recT, fmt.Errorf("smartssd: stripe %d of %q: %w", gi, name, err)
				}
				shards[gi] = buf
				c.Acct.AddBytes(bucket, meta.lenOf(gi))
			}
			shards[gi] = c.padded(gi, shards[gi], meta.stripeLen)
			held++
		}
		if held < k {
			return lost, recT, fmt.Errorf("smartssd: %q has %d of the %d surviving stripes a decode needs: %w",
				name, held, k, faults.ErrDeviceLost)
		}
		for _, gi := range lost {
			shards[gi] = c.slot(gi, meta.stripeLen)
		}
		decode := meta.code.ReconstructData
		if slices.Max(lost) >= k {
			decode = meta.code.Reconstruct
		}
		if err := decode(shards); err != nil {
			return lost, recT, fmt.Errorf("smartssd: reconstructing %q: %w", name, err)
		}
		dur := gfTime(int64(k) * meta.stripeLen * int64(len(lost)))
		c.Acct.AddTime("recover.reconstruct", dur)
		recT += dur
		var err error
		for _, gi := range lost {
			if gi < k && c.Verify != nil && err == nil {
				err = c.Verify(shards[gi][:meta.lenOf(gi)])
			}
		}
		if err == nil {
			return lost, recT, nil
		}
		st.Read.Corrupt++
		if attempt == attempts {
			return lost, recT, fmt.Errorf("smartssd: reconstructed stripes of %q failed verification after %d attempts: %w",
				name, attempts, err)
		}
		clear(shards[k:]) // corrupted parity read: re-read it and decode again
	}
}

// readStripe reads group member gi's whole stripe of name — one
// command per record, under the default retry policy, verified by
// Cluster.Verify when gi holds data (parity stripes are not records) —
// and marks the member lost (noteLost) when the read finds it gone. The
// read gets an unsized local copy of gi's arena slot (arena rule 2): a
// clean read returns a view of the stored stripe and never touches the
// slot, and a corrupted one that outgrows the copy leaves the arena as
// it was.
func (c *Cluster) readStripe(gi int, name string, meta *stripeMeta) ([]byte, ReadStats, error) {
	length := meta.lenOf(gi)
	verify := c.Verify
	if gi >= meta.place.DataShards {
		verify = nil
	}
	slot := c.slot(gi, 0)
	buf, st, err := c.Devices[gi].ReadResilientInto(&slot, name, 0, length, int(length/meta.rec), verify, RetryPolicy{})
	if errors.Is(err, faults.ErrDeviceLost) {
		c.noteLost(gi, name)
	}
	return buf, st, err
}

// DegradedScanBound models the worst-case extra simulated time one
// lost-device scan pays over a clean scan of the same striped dataset:
// the host-path liveness probe, one parity stripe pulled per lost
// device over P2P, and the GF reconstruction math. bench-recovery
// gates measured degraded overhead against this bound.
func (c *Cluster) DegradedScanBound(name string, lostDevices int) (time.Duration, error) {
	meta, err := c.parityFor(name)
	if err != nil {
		return 0, err
	}
	if lostDevices < 1 {
		lostDevices = 1
	}
	k := meta.place.DataShards
	d := c.Devices[0]
	probe := d.Host.CommandLatency + d.Host.Duration(0, 1)
	parity := d.P2P.Duration(meta.stripeLen, int(meta.stripeLen/meta.rec))
	gf := gfTime(int64(k) * meta.stripeLen * int64(lostDevices))
	return time.Duration(lostDevices)*(probe+parity) + gf, nil
}

// gfTime converts streamed GF-math source bytes into simulated time at
// the modeled reconstruction bandwidth.
func gfTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / DefaultReconstructBW * float64(time.Second))
}

// padded returns member gi's stripe b at the n-byte coding length: b
// itself when full length, otherwise a copy zero-padded in gi's arena
// slot, since b may be a view of the stored image. The zeroing is not
// optional: the slot may last have held something longer, and the
// decode reads every byte up to n.
func (c *Cluster) padded(gi int, b []byte, n int64) []byte {
	if int64(len(b)) == n {
		return b
	}
	out := c.slot(gi, n)[:n]
	clear(out[copy(out, b):])
	return out
}

// padStripe zero-pads b to n bytes for the coding math by copying (no
// copy when already full length). StripeDataset's stripes are windows
// into the caller's image, so they cannot be extended where they lie.
func padStripe(b []byte, n int64) []byte {
	if int64(len(b)) == n {
		return b
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
