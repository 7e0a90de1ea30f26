// Package faults provides the fault model of the storage → selection →
// training pipeline (DESIGN.md §4.6): a deterministic, seeded injector
// that perturbs the device models with the failure classes a real
// near-storage deployment sees (NAND read corruption, transient I/O
// errors, latency spikes, P2P link drops, straggling shards), plus the
// typed sentinel errors every layer uses so callers classify failures
// with errors.Is instead of string matching.
//
// Determinism contract: the injector draws from one seeded SplitMix64
// stream under a lock, and every hook consumes a fixed number of draws
// per call regardless of outcome. Two runs with the same profile, seed,
// and operation sequence therefore inject the identical fault schedule
// — chaos runs are reproducible bug reports, not flakes. A profile with
// all rates zero injects nothing while still exercising every hook, so
// the zero-fault path through the resilience layer is bit-identical to
// running with no injector at all.
package faults

import (
	"errors"
	"sync"
	"time"

	"nessa/internal/tensor"
)

// Class names one injectable fault category. Classes are the keys of
// the injector's ground-truth counters and of the per-class accounting
// reported by core.Run.
type Class string

const (
	// ClassCorrupt is a silent NAND read corruption (UECC escape): the
	// read succeeds but a bit of the returned payload is flipped. Only
	// the codec's per-record CRC32C detects it.
	ClassCorrupt Class = "corrupt"
	// ClassTransient is a retryable I/O error: the flash command fails
	// outright but a re-issued read may succeed.
	ClassTransient Class = "transient"
	// ClassLatency is a latency spike: the read succeeds but takes an
	// extra Profile.LatencySpike of simulated time.
	ClassLatency Class = "latency"
	// ClassLinkDown is a P2P link failure: the SSD↔FPGA peer-to-peer
	// transfer fails and the host-mediated path must take over.
	ClassLinkDown Class = "linkdown"
	// ClassStall is a straggling shard: a cluster shard scan completes
	// but only after an extra Profile.StallFor of simulated time, which
	// the scan's wall (the slowest device) absorbs.
	ClassStall Class = "stall"
	// ClassDeviceLost is a whole-device failure: the SmartSSD stops
	// answering on every path (flash, P2P, host) and never comes back.
	// Unlike every other class it is permanent and sticky — recovery
	// means reconstruction from redundancy, not retry.
	ClassDeviceLost Class = "devicelost"
)

// AllClasses lists every fault class in stable reporting order.
func AllClasses() []Class {
	return []Class{ClassCorrupt, ClassTransient, ClassLatency, ClassLinkDown, ClassStall, ClassDeviceLost}
}

// Typed sentinel errors of the pipeline. Device and controller code
// wraps these with context (%w), so errors.Is classifies any failure
// regardless of how many layers it crossed.
var (
	// ErrCorruptRecord marks a record whose CRC32C check failed.
	ErrCorruptRecord = errors.New("corrupt record (CRC mismatch)")
	// ErrTransientIO marks a retryable device I/O failure.
	ErrTransientIO = errors.New("transient I/O error")
	// ErrLinkDown marks a failed P2P link transfer.
	ErrLinkDown = errors.New("p2p link down")
	// ErrDeviceLost marks a whole-device failure. It is permanent: the
	// device fails every subsequent operation on every path, so it is
	// deliberately NOT degradable — retry and host fallback cannot help.
	// Cluster-level code classifies it with errors.Is and recovers by
	// reconstructing the lost stripe from parity instead.
	ErrDeviceLost = errors.New("device lost")
	// ErrOutOfRange marks a read with a negative or overflowing
	// offset/length, or one past the end of the stored object.
	ErrOutOfRange = errors.New("read out of range")
	// ErrNotFound marks a read of an object that was never stored.
	ErrNotFound = errors.New("object not found")
)

// IsDegradable reports whether err is a fault the controller may
// degrade around (retry exhausted on transient errors or corruption,
// link loss) rather than a permanent configuration or
// addressing error that must abort the run.
func IsDegradable(err error) bool {
	return errors.Is(err, ErrTransientIO) ||
		errors.Is(err, ErrCorruptRecord) ||
		errors.Is(err, ErrLinkDown)
}

// Profile configures per-operation fault rates. All rates are
// probabilities in [0,1] evaluated independently per operation; the
// zero value injects nothing.
type Profile struct {
	Seed uint64 // PRNG seed; the whole chaos schedule derives from it

	CorruptRate   float64       // per flash read: flip one payload bit
	TransientRate float64       // per flash read: fail with ErrTransientIO
	LatencyRate   float64       // per flash read: add LatencySpike
	LatencySpike  time.Duration // size of an injected latency spike
	LinkDownRate  float64       // per P2P transfer: fail with ErrLinkDown
	StallRate     float64       // per shard scan: add StallFor
	StallFor      time.Duration // size of an injected shard stall

	// Kills schedules whole-device losses. They consume no PRNG draws,
	// so arming a schedule never shifts the other classes' faults.
	Kills []DeviceKill
}

// DeviceKill is one scripted whole-device loss: device Device dies
// once it has completed AfterScans cluster scans. Zero or a negative
// count never fires.
type DeviceKill struct {
	Device     int   // device ID to kill
	AfterScans int64 // fire when the device's completed-scan count reaches this
}

// DefaultChaosProfile is the standard mixed fault schedule used by the
// bench-faults artifact and the chaos end-to-end test: every rated
// class fires often enough to exercise retry, host fallback and
// stalled shards within a short run, yet rarely enough that the run
// completes. It kills no device.
func DefaultChaosProfile() Profile {
	return Profile{
		Seed:          42,
		CorruptRate:   0.05,
		TransientRate: 0.10,
		LatencyRate:   0.05,
		LatencySpike:  5 * time.Millisecond,
		LinkDownRate:  0.05,
		StallRate:     0.10,
		StallFor:      25 * time.Millisecond,
	}
}

// ReadFault is the injected outcome of one flash read command.
type ReadFault struct {
	Transient bool          // fail the command with ErrTransientIO
	Corrupt   bool          // silently flip a bit of the returned payload
	Extra     time.Duration // added access latency (spike)
}

// Injector draws fault decisions from a seeded PRNG. All methods are
// safe for concurrent use and safe on a nil receiver (a nil injector
// never injects), so device code calls hooks unconditionally.
type Injector struct {
	mu     sync.Mutex
	prof   Profile
	rng    *tensor.RNG
	counts map[Class]int64
	lost   map[int]bool // device ID → permanently lost
}

// NewInjector builds an injector for the profile, seeded from
// prof.Seed.
func NewInjector(prof Profile) *Injector {
	return &Injector{
		prof:   prof,
		rng:    tensor.NewRNG(prof.Seed),
		counts: make(map[Class]int64),
		lost:   make(map[int]bool),
	}
}

// FlashRead decides the fate of one flash read command. It always
// consumes exactly three PRNG draws so the schedule is independent of
// which classes are enabled. A transient failure suppresses corruption
// (no payload is returned to corrupt) but still pays any latency spike.
func (in *Injector) FlashRead() ReadFault {
	if in == nil {
		return ReadFault{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var f ReadFault
	if in.rng.Float64() < in.prof.TransientRate {
		f.Transient = true
		in.counts[ClassTransient]++
	}
	if in.rng.Float64() < in.prof.CorruptRate && !f.Transient {
		f.Corrupt = true
	}
	if in.rng.Float64() < in.prof.LatencyRate {
		f.Extra = in.prof.LatencySpike
		in.counts[ClassLatency]++
	}
	return f
}

// CorruptPayload flips one deterministically chosen bit of buf,
// counting the corruption. No-op on an empty buffer.
func (in *Injector) CorruptPayload(buf []byte) {
	if in == nil || len(buf) == 0 {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	i := in.rng.Intn(len(buf))
	bit := in.rng.Intn(8)
	buf[i] ^= 1 << uint(bit)
	in.counts[ClassCorrupt]++
}

// LinkDown decides whether one P2P transfer finds the link down.
func (in *Injector) LinkDown() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() < in.prof.LinkDownRate {
		in.counts[ClassLinkDown]++
		return true
	}
	return false
}

// Stall decides whether one shard scan straggles and by how much.
func (in *Injector) Stall() time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() < in.prof.StallRate {
		in.counts[ClassStall]++
		return in.prof.StallFor
	}
	return 0
}

// DeviceLoss reports whether the identified device is (or just
// became) permanently lost, given its completed cluster-scan count.
// Loss is sticky: once this returns true for a device ID it returns
// true forever after. It draws nothing from the PRNG, so a kill
// schedule perturbs nothing but the device it names.
func (in *Injector) DeviceLoss(device int, scans int64) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.lost[device] {
		return true
	}
	for _, k := range in.prof.Kills {
		if k.Device == device && k.AfterScans > 0 && scans >= k.AfterScans {
			in.lost[device] = true
			in.counts[ClassDeviceLost]++
			return true
		}
	}
	return false
}

// BackoffJitter maps a nominal backoff to a jittered one in
// [b/2, b), drawn from the injector's stream so retry timing is part of
// the reproducible schedule. A nil injector returns b unchanged.
func (in *Injector) BackoffJitter(b time.Duration) time.Duration {
	if in == nil || b <= 0 {
		return b
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	half := b / 2
	return half + time.Duration(in.rng.Float64()*float64(half))
}

// Count reports how many faults of class c have been injected.
func (in *Injector) Count(c Class) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[c]
}

// Counts returns a copy of every per-class injected-fault counter.
func (in *Injector) Counts() map[Class]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Class]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}
