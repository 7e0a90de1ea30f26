package smartssd

import (
	"bytes"
	"errors"
	"fmt"
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
// zero-length liveness probe: a one-attempt host-path read. A loss is
// sticky, so the probe always fails; its error is dropped, but its
// command setup stays on the device's clock, which DegradedScanBound
// prices.
func (c *Cluster) noteLost(i int, name string) {
	if c.health[i] == HealthLost {
		return
	}
	_, _, _ = c.Devices[i].ReadResilientHost(new([]byte), nil, name, oneRecord, 0, nil, RetryPolicy{MaxAttempts: 1})
	c.health[i] = HealthLost
	c.lostEver++
}

// reconstructStripes serves the lost data stripes from parity: pull
// enough surviving parity stripes, run the RS decode, and verify the
// rebuilt payloads. A verification failure means a parity read was
// silently corrupted in flight, so the parity pull and decode are
// retried once before giving up. Returns the simulated GF-math time
// (the parity reads advance their own devices' clocks directly).
//
// The decode reads survivors and parity pulls where they lie (a short
// survivor through its padded copy) and writes each lost data stripe
// straight into its member's arena slot (decodeLost); parity that was
// not pulled is never decoded.
func (c *Cluster) reconstructStripes(name string, meta *stripeMeta, data [][]byte, lost []int, st *ScanStats) (time.Duration, error) {
	k, m := meta.place.DataShards, meta.place.ParityShards
	if len(lost) > m {
		return 0, fmt.Errorf("smartssd: %d data stripes of %q lost with only %d parity stripes: %w",
			len(lost), name, m, faults.ErrDeviceLost)
	}
	var recT time.Duration
	var lastErr error
	const attempts = 2
	shards := make([][]byte, k+m)
	for attempt := 0; attempt < attempts; attempt++ {
		clear(shards)
		for i := 0; i < k; i++ {
			if data[i] != nil {
				shards[i] = c.padded(i, data[i], meta.stripeLen)
			}
		}
		needed := len(lost)
		for r := 0; r < m && needed > 0; r++ {
			pi := k + r
			if c.health[pi] == HealthLost {
				continue
			}
			buf, rst, err := c.readStripe(pi, name, meta.stripeLen, meta.rec, nil)
			st.Read.Add(rst)
			if err != nil {
				if errors.Is(err, faults.ErrDeviceLost) {
					continue
				}
				return recT, fmt.Errorf("smartssd: parity stripe %d of %q: %w", r, name, err)
			}
			shards[pi] = buf
			c.Acct.AddBytes("recover.parity", meta.stripeLen)
			needed--
		}
		if needed > 0 {
			return recT, fmt.Errorf("smartssd: %q is short %d surviving stripes for reconstruction: %w",
				name, needed, faults.ErrDeviceLost)
		}
		dur, err := c.decodeLost(meta, shards, lost)
		if err != nil {
			return recT, fmt.Errorf("smartssd: reconstructing %q: %w", name, err)
		}
		recT += dur
		ok := true
		if c.Verify != nil {
			for _, i := range lost {
				if err := c.Verify(shards[i][:meta.lenOf(i)]); err != nil {
					st.Read.Corrupt++
					lastErr = err
					ok = false
					break
				}
			}
		}
		if !ok {
			continue // corrupted parity pull: re-read and decode again
		}
		for _, i := range lost {
			data[i] = shards[i][:meta.lenOf(i)]
			st.DegradedReads++
			st.ReconstructedBytes += meta.lenOf(i)
			c.Acct.AddBytes("recover.rebuilt", meta.lenOf(i))
		}
		return recT, nil
	}
	return recT, fmt.Errorf("smartssd: reconstructed stripes of %q failed verification after %d attempts: %w",
		name, attempts, lastErr)
}

// Rebuild re-materializes every confirmed-lost device's stripe of the
// named striped dataset onto attached spares, swapping each spare into
// the lost slot (back to HealthHealthy). It reads DataShards surviving
// stripes — advancing those devices' simulated clocks, which is
// exactly how a background rebuild races foreground scans for link
// bandwidth — decodes the missing stripes, and writes each onto its
// spare. Returns the rebuild's simulated duration: the slowest
// survivor read, plus the GF-math time, plus the slowest spare write.
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
	shards := make([][]byte, group)
	sources := 0
	var readWall time.Duration
	for gi := 0; gi < group && sources < k; gi++ {
		if c.health[gi] != HealthHealthy {
			continue
		}
		d := c.Devices[gi]
		length := meta.lenOf(gi)
		verify := c.Verify
		if gi >= k {
			verify = nil // parity stripes are not records
		}
		before := d.Clock.Now()
		buf, _, err := c.readStripe(gi, name, length, meta.rec, verify)
		if err != nil {
			if errors.Is(err, faults.ErrDeviceLost) {
				continue
			}
			return 0, fmt.Errorf("smartssd: rebuild source stripe %d of %q: %w", gi, name, err)
		}
		if dt := d.Clock.Now() - before; dt > readWall {
			readWall = dt
		}
		shards[gi] = c.padded(gi, buf, meta.stripeLen)
		c.Acct.AddBytes("recover.rebuild.read", length)
		sources++
	}
	if sources < k {
		return 0, fmt.Errorf("smartssd: rebuilding %q needs %d surviving stripes, found %d: %w",
			name, k, sources, faults.ErrDeviceLost)
	}
	recT, err := c.decodeLost(meta, shards, lost)
	if err != nil {
		return 0, fmt.Errorf("smartssd: rebuilding %q: %w", name, err)
	}
	var writeWall time.Duration
	for _, gi := range lost {
		payload := shards[gi][:meta.lenOf(gi)]
		if gi < k && c.Verify != nil {
			if err := c.Verify(payload); err != nil {
				return 0, fmt.Errorf("smartssd: rebuilt stripe %d of %q failed verification: %w", gi, name, err)
			}
		}
		spare := c.spares[0]
		before := spare.Clock.Now()
		// payload is a view into the scan arena, which the next scan
		// overwrites: the spare keeps a copy.
		if err := spare.StoreDataset(name, bytes.Clone(payload)); err != nil {
			c.spares = append(c.spares[1:], spare)
			return 0, fmt.Errorf("smartssd: writing rebuilt stripe %d of %q to spare device %d: %w",
				gi, name, spare.ID, err)
		}
		if dt := spare.Clock.Now() - before; dt > writeWall {
			writeWall = dt
		}
		c.Acct.AddBytes("recover.rebuilt", int64(len(payload)))
		c.spares = c.spares[1:]
		c.Devices[gi] = spare
		c.health[gi] = HealthHealthy
	}
	return readWall + recT + writeWall, nil
}

// readStripe reads group member gi's whole stripe of name — length
// bytes, issued as one command per rec-byte record — under the default
// retry policy, and marks the member lost (noteLost) when the read
// finds it gone. The read gets an unsized local copy of gi's arena slot
// (arena rule 2): a clean read returns a view of the stored stripe and
// never touches the slot, and a corrupted one that outgrows the copy
// leaves the arena as it was.
func (c *Cluster) readStripe(gi int, name string, length, rec int64, verify func([]byte) error) ([]byte, ReadStats, error) {
	slot := c.slot(gi, 0)
	buf, st, err := c.Devices[gi].ReadResilientInto(&slot, name, 0, length, int(length/rec), verify, RetryPolicy{})
	if errors.Is(err, faults.ErrDeviceLost) {
		c.noteLost(gi, name)
	}
	return buf, st, err
}

// decodeLost decodes the stripes of the lost members (ascending) from
// the surviving shards, each straight into its member's arena slot: the
// data-only decode unless a parity member is lost. (The full decode
// also re-derives, into a temporary, a healthy parity stripe that was
// not pulled — the price of that rarer case.) Each lost stripe is a
// k-term GF dot product over the stripe length, k·stripeLen source
// bytes streamed, charged to recover.reconstruct; it returns that time.
func (c *Cluster) decodeLost(meta *stripeMeta, shards [][]byte, lost []int) (time.Duration, error) {
	for _, gi := range lost {
		shards[gi] = c.slot(gi, meta.stripeLen)
	}
	k := meta.place.DataShards
	decode := meta.code.ReconstructData
	if lost[len(lost)-1] >= k {
		decode = meta.code.Reconstruct
	}
	if err := decode(shards); err != nil {
		return 0, err
	}
	dur := gfTime(int64(k) * meta.stripeLen * int64(len(lost)))
	c.Acct.AddTime("recover.reconstruct", dur)
	return dur, nil
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
