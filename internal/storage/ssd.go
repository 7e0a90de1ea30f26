// Package storage models the NAND-flash SSD underneath the SmartSSD: a
// multi-channel flash array with per-command latency and per-channel
// bandwidth, plus a simple named block store for laying datasets out as
// contiguous extents. All timing is simulated (see internal/simtime);
// data payloads are real bytes so codecs and selection run on actual
// stored content.
package storage

import (
	"fmt"
	"sync"
	"time"

	"nessa/internal/faults"
)

// Config describes the flash device. DefaultConfig matches the Samsung
// SmartSSD's 3.84 TB U.2 drive (paper §2.2).
type Config struct {
	Capacity        int64         // total bytes
	Channels        int           // independent flash channels
	PageSize        int64         // flash page granularity
	ChannelBW       float64       // bytes/second per channel
	CommandLatency  time.Duration // per-command flash access latency
	WriteAmplFactor float64       // write slowdown relative to read
}

// DefaultConfig returns the 3.84 TB SmartSSD drive model: 8 channels at
// 400 MB/s each give a 3.2 GB/s internal array bandwidth, slightly above
// the 3 GB/s peak of the P2P link so the link is the bottleneck, as on
// the real device.
func DefaultConfig() Config {
	return Config{
		Capacity:        3840 * 1000 * 1000 * 1000,
		Channels:        8,
		PageSize:        16 * 1024,
		ChannelBW:       400e6,
		CommandLatency:  60 * time.Microsecond,
		WriteAmplFactor: 2.5,
	}
}

// InternalBW reports the aggregate array bandwidth in bytes/second.
func (c Config) InternalBW() float64 { return float64(c.Channels) * c.ChannelBW }

// FillFunc synthesizes the bytes of a virtual object: it must write
// exactly len(buf) bytes representing the object's content at [off,
// off+len(buf)), deterministically — two calls over the same range
// must produce the same bytes. Calls are serialized under the device
// mutex, so implementations may use internal scratch without locking.
type FillFunc func(off int64, buf []byte)

// extent is a named contiguous region of the drive. A materialized
// extent holds its payload in data; a virtual extent (fill != nil)
// synthesizes bytes on demand, so an arbitrarily large object costs no
// host memory — the substrate for streaming-scale datasets that exist
// on the simulated drive but never fit in RAM.
type extent struct {
	name string
	off  int64
	size int64
	data []byte
	fill FillFunc
}

// SSD is the flash device plus a flat object namespace. Objects are
// allocated contiguously in write order; this mirrors how the NeSSA
// pipeline lays a dataset down once and then streams it every epoch.
type SSD struct {
	cfg Config

	mu      sync.Mutex
	objects map[string]*extent
	nextOff int64
	inj     *faults.Injector
}

// New creates an empty SSD with the given config.
func New(cfg Config) (*SSD, error) {
	if cfg.Capacity <= 0 || cfg.Channels <= 0 || cfg.PageSize <= 0 || cfg.ChannelBW <= 0 {
		return nil, fmt.Errorf("storage: invalid config %+v", cfg)
	}
	return &SSD{cfg: cfg, objects: make(map[string]*extent)}, nil
}

// Config returns the device configuration.
func (s *SSD) Config() Config { return s.cfg }

// SetInjector attaches a fault injector to the flash array. Every
// subsequent read consults it for NAND-level faults (silent payload
// corruption, transient command failures, latency spikes). A nil
// injector restores fault-free operation.
func (s *SSD) SetInjector(in *faults.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = in
}

// Used reports the bytes currently allocated (page-aligned).
func (s *SSD) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextOff
}

// alignUp rounds n up to the next page boundary.
func (s *SSD) alignUp(n int64) int64 {
	p := s.cfg.PageSize
	return (n + p - 1) / p * p
}

// Write stores data under name and returns the simulated time the
// write took. The drive keeps data itself, not a copy: the caller must
// not modify it afterwards, and the drive never writes into it. (A
// copy would leave the caller's image, often tens of MB, as garbage
// whose free span the next allocations fragment, so peak RSS would
// depend on GC timing.) Rewriting an existing name replaces its
// contents (and reuses its extent if the new data fits).
func (s *SSD) Write(name string, data []byte) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.objects[name]; ok && int64(len(data)) <= s.alignUp(e.size) {
		e.data = data
		e.fill = nil
		e.size = int64(len(data))
		return s.transferTime(int64(len(data)), true), nil
	}
	size := s.alignUp(int64(len(data)))
	if s.nextOff+size > s.cfg.Capacity {
		return 0, fmt.Errorf("storage: device full: need %d bytes, %d free", size, s.cfg.Capacity-s.nextOff)
	}
	e := &extent{name: name, off: s.nextOff, size: int64(len(data)), data: data}
	s.objects[name] = e
	s.nextOff += size
	return s.transferTime(int64(len(data)), true), nil
}

// PutVirtual allocates a virtual object of the given size whose bytes
// are synthesized by fill on every read. The object occupies drive
// address space (capacity is checked) but no host memory, modeling a
// dataset already laid out on the flash array by an earlier ingest.
// No write time is charged: nothing crosses the simulated channels.
func (s *SSD) PutVirtual(name string, size int64, fill FillFunc) error {
	if size < 0 || fill == nil {
		return fmt.Errorf("storage: virtual object %q needs a non-negative size and a fill function", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; ok {
		return fmt.Errorf("storage: object %q already exists", name)
	}
	aligned := s.alignUp(size)
	if s.nextOff+aligned > s.cfg.Capacity {
		return fmt.Errorf("storage: device full: need %d bytes, %d free", aligned, s.cfg.Capacity-s.nextOff)
	}
	s.objects[name] = &extent{name: name, off: s.nextOff, size: size, fill: fill}
	s.nextOff += aligned
	return nil
}

// ReadAt reads length bytes of object name starting at off, returning
// the payload and the simulated flash access time: the one-record
// ReadRecordsInto into a slot of its own (so a clean read is a view).
func (s *SSD) ReadAt(name string, off, length int64) ([]byte, time.Duration, error) {
	var slot []byte
	var one [1][]byte
	ps, dur, err := s.ReadRecordsInto(name, off, length, oneRecord, &slot, one[:0])
	if err != nil {
		return nil, dur, err
	}
	return ps[0], dur, nil
}

// oneRecord is the record list of a contiguous read. Never written.
var oneRecord = []int{0}

// ReadRecordsInto is one flash command: payload i, appended to out[:0],
// is record recs[i] of object name — the stride bytes at off +
// recs[i]·stride — capacity clipped to its length. A contiguous read of
// [off, off+length) is the one record {0} at stride length. Only a
// write grows the slot: a clean read of a materialized object returns
// views of the stored records, which the caller must not write, and
// leaves *slot untouched; a virtual object or a corrupted draw is
// assembled in *slot, grown to len(recs)·stride bytes if shorter, one
// window per record. The cost is one command latency plus the payload's
// streaming time, whatever the list and the slot. Addressing failures
// wrap faults.ErrOutOfRange / faults.ErrNotFound; with an injector
// attached, the command may also fail with faults.ErrTransientIO (slot
// untouched), flip one assembled bit silently, or take a latency spike.
// On error the list comes back empty.
func (s *SSD) ReadRecordsInto(name string, off, stride int64, recs []int, slot *[]byte, out [][]byte) ([][]byte, time.Duration, error) {
	out = out[:0]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[name]
	if !ok {
		return out, 0, fmt.Errorf("storage: object %q: %w", name, faults.ErrNotFound)
	}
	// Bounds are checked overflow-safely: an address is never formed
	// before its operands are known non-negative and in range.
	if off < 0 || stride < 0 || off > e.size {
		return out, 0, fmt.Errorf("storage: read [%d,+%d) of %q (%d bytes): %w",
			off, stride, name, e.size, faults.ErrOutOfRange)
	}
	for _, r := range recs {
		if r < 0 || stride > 0 && int64(r) > (e.size-off)/stride || stride > e.size-off-int64(r)*stride {
			return out, 0, fmt.Errorf("storage: read [%d,+%d) of %q (%d bytes): %w",
				off+int64(r)*stride, stride, name, e.size, faults.ErrOutOfRange)
		}
	}
	f := s.inj.FlashRead()
	if f.Transient {
		// The failed command still costs its setup latency (plus any
		// spike) so retry storms advance simulated time.
		return out, s.cfg.CommandLatency + f.Extra,
			fmt.Errorf("storage: read %q: %w", name, faults.ErrTransientIO)
	}
	length := stride * int64(len(recs))
	dur := s.transferTime(length, false) + f.Extra
	if e.fill == nil && !f.Corrupt {
		for _, r := range recs {
			at := off + int64(r)*stride
			out = append(out, e.data[at:at+stride:at+stride])
		}
		return out, dur, nil
	}
	if int64(cap(*slot)) < length {
		*slot = make([]byte, length)
	}
	buf := (*slot)[:length]
	for i, r := range recs {
		at := off + int64(r)*stride
		seg := buf[int64(i)*stride : int64(i+1)*stride : int64(i+1)*stride]
		if e.fill != nil {
			e.fill(at, seg)
		} else {
			copy(seg, e.data[at:at+stride])
		}
		out = append(out, seg)
	}
	if f.Corrupt {
		s.inj.CorruptPayload(buf) // silent: detection is the codec's CRC
	}
	return out, dur, nil
}

// Size reports the byte length of object name.
func (s *SSD) Size(name string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[name]
	if !ok {
		return 0, fmt.Errorf("storage: object %q: %w", name, faults.ErrNotFound)
	}
	return e.size, nil
}

// transferTime models one flash access: a fixed command latency plus
// streaming the pages across the channel array. Pages stripe across
// channels, so throughput is the aggregate array bandwidth. Writes pay
// the write-amplification factor.
func (s *SSD) transferTime(bytes int64, write bool) time.Duration {
	if bytes <= 0 {
		return s.cfg.CommandLatency
	}
	bw := s.InternalBWFor(write)
	sec := float64(bytes) / bw
	return s.cfg.CommandLatency + time.Duration(sec*float64(time.Second))
}

// InternalBWFor reports the effective internal bandwidth for the
// direction.
func (s *SSD) InternalBWFor(write bool) float64 {
	bw := s.cfg.InternalBW()
	if write && s.cfg.WriteAmplFactor > 0 {
		bw /= s.cfg.WriteAmplFactor
	}
	return bw
}
