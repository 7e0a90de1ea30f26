package smartssd

import (
	"errors"
	"fmt"
	"time"

	"nessa/internal/faults"
)

// RetryPolicy bounds the host-side recovery loop around device reads:
// up to MaxAttempts issues of the same read, with exponential backoff
// (doubling from BaseBackoff, capped at MaxBackoff) and injector-seeded
// jitter between attempts. The zero value means DefaultRetryPolicy.
type RetryPolicy struct {
	MaxAttempts int           // total read issues before giving up
	BaseBackoff time.Duration // backoff before the first retry
	MaxBackoff  time.Duration // backoff ceiling
}

// DefaultRetryPolicy returns the standard policy: four attempts with
// 200 µs → 5 ms exponential backoff. Four attempts drive the residual
// failure rate of independent transient faults below rate⁴ (one in
// 10⁴ at a 10 % fault rate) while bounding the worst-case stall under
// a hard outage to well under the cost of one degraded epoch.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 200 * time.Microsecond, MaxBackoff: 5 * time.Millisecond}
}

// normalize fills in defaults field by field, so a partially specified
// policy (say RetryPolicy{MaxAttempts: 6}) still gets the standard
// backoff curve instead of silently retrying with zero backoff.
func (p RetryPolicy) normalize() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = def.MaxBackoff
	}
	return p
}

// backoff reports the nominal pause before retry number n (1-based).
func (p RetryPolicy) backoff(n int) time.Duration {
	b := p.BaseBackoff
	for i := 1; i < n; i++ {
		b *= 2
		if p.MaxBackoff > 0 && b >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && b > p.MaxBackoff {
		b = p.MaxBackoff
	}
	return b
}

// ReadStats reports what the recovery loop did for one resilient read.
type ReadStats struct {
	Attempts     int  // read issues, including the first
	Retries      int  // re-issues after a recoverable failure
	Transient    int  // transient I/O errors absorbed
	Corrupt      int  // corrupted payloads detected (verify failures)
	HostFallback bool // the P2P link was down and the host path took over
}

// Add accumulates other into s.
func (s *ReadStats) Add(other ReadStats) {
	s.Attempts += other.Attempts
	s.Retries += other.Retries
	s.Transient += other.Transient
	s.Corrupt += other.Corrupt
	s.HostFallback = s.HostFallback || other.HostFallback
}

// ReadResilient reads [off, off+length) of object name into FPGA DRAM
// over the P2P link, issued as commands transfer commands (one per
// image when streaming a batch), with the §4.6 recovery policy:
//
//   - transient flash errors are retried with exponential backoff and
//     jitter, each backoff charged to the simulated clock;
//   - a down P2P link switches the read to the host-mediated path
//     (the paper's conventional path) for the remaining attempts;
//   - if verify is non-nil it runs over every successful payload, and a
//     verification failure (e.g. a CRC mismatch from a silent NAND
//     corruption) re-issues the read like a transient error;
//   - addressing and capacity errors are permanent and returned
//     immediately.
//
// RetryPolicy{MaxAttempts: 1} with a nil verify is the raw read: one
// issue, no backoff draw, and the first failure returned.
//
// On exhaustion the returned error wraps the last failure, so callers
// classify it with errors.Is (faults.ErrTransientIO,
// faults.ErrCorruptRecord, ...).
func (d *Device) ReadResilient(name string, off, length int64, commands int, verify func([]byte) error, pol RetryPolicy) ([]byte, ReadStats, error) {
	var slot []byte
	var one [1][]byte
	ps, st, err := d.readResilient(&slot, one[:0], name, off, length, oneRecord, commands, verify, pol, false)
	if err != nil {
		return nil, st, err
	}
	return ps[0], st, nil
}

// ReadResilientInto is ReadResilient with a slot the caller owns: a
// clean read of a materialized object is a read-only view of the stored
// bytes, and a virtual object's bytes and every corrupted attempt land
// in *slot, grown to length bytes if shorter
// (storage.SSD.ReadRecordsInto). On error *slot's contents are
// unspecified.
func (d *Device) ReadResilientInto(slot *[]byte, name string, off, length int64, commands int, verify func([]byte) error, pol RetryPolicy) ([]byte, ReadStats, error) {
	var one [1][]byte
	ps, st, err := d.readResilient(slot, one[:0], name, off, length, oneRecord, commands, verify, pol, false)
	if err != nil {
		return nil, st, err
	}
	return ps[0], st, nil
}

// oneRecord is the record list of a contiguous read: [off, off+length)
// is record 0 at stride length. Never written.
var oneRecord = []int{0}

// ReadRecordsInto is ReadResilientInto over a record list: payload i,
// appended to out[:0], is record recs[i] of a stride-byte record image,
// verified on its own. The records are gathered by one flash command
// per attempt and charged as one read of len(recs)·stride bytes issued
// as len(recs) transfer commands — what a contiguous read of as many
// records costs. A retry policy of one attempt with a nil verify is the
// raw P2P read of those records. On error the list comes back empty.
func (d *Device) ReadRecordsInto(slot *[]byte, out [][]byte, name string, recs []int, stride int64, verify func([]byte) error, pol RetryPolicy) ([][]byte, ReadStats, error) {
	return d.readResilient(slot, out, name, 0, stride, recs, len(recs), verify, pol, false)
}

// ReadResilientHost is ReadRecordsInto pinned to the host-mediated path
// — the degraded-mode read the controller uses to fetch a fallback
// subset when the near-storage pipeline is unavailable. Link-down faults
// do not apply; flash-level faults and verification retries behave
// identically.
func (d *Device) ReadResilientHost(slot *[]byte, out [][]byte, name string, recs []int, stride int64, verify func([]byte) error, pol RetryPolicy) ([][]byte, ReadStats, error) {
	return d.readResilient(slot, out, name, 0, stride, recs, len(recs), verify, pol, true)
}

// readResilient is every device read: records recs — each stride bytes
// at off + rec·stride, gathered per attempt by one flash command
// (storage.SSD.ReadRecordsInto, whose slot and payload contract it
// takes) — over the P2P link into FPGA DRAM or, with host set, over the
// conventional path: the drive DMAs into host DRAM and the host into
// the FPGA, so flash and the staged copies serialize at the 1.4 GB/s
// effective host bandwidth instead of pipelining. Each attempt makes
// the lost-device check, the link-down draw (P2P only), the flash read
// and its charges; pol bounds the attempts (see ReadResilient).
func (d *Device) readResilient(slot *[]byte, out [][]byte, name string, off, stride int64, recs []int, commands int, verify func([]byte) error, pol RetryPolicy, host bool) ([][]byte, ReadStats, error) {
	pol = pol.normalize()
	var st ReadStats
	if off < 0 || stride < 0 {
		return out[:0], st, fmt.Errorf("smartssd: read [%d,+%d) of %q: %w", off, stride, name, faults.ErrOutOfRange)
	}
	length := stride * int64(len(recs))
	if !host && length > d.Spec.DRAMBytes {
		return out[:0], st, fmt.Errorf("smartssd: transfer of %d bytes exceeds FPGA DRAM (%d)", length, d.Spec.DRAMBytes)
	}
	var lastErr error
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if attempt > 1 {
			st.Retries++
			if b := d.inj.BackoffJitter(pol.backoff(attempt - 1)); b > 0 {
				d.charge("retry.backoff", b)
			}
		}
		st.Attempts++
		link, op, errBucket, readBucket := d.P2P, "p2p read", "p2p.error", "p2p.read"
		if host {
			link, op, errBucket, readBucket = d.Host, "host read", "host.error", "host.read"
		}
		if err := d.lostCheck(link, errBucket, op, name); err != nil {
			return out[:0], st, err
		}
		if !host && d.inj.LinkDown() {
			// The DMA setup is spent before the link failure is
			// observed. P2P → host fallback: the rest of this read stays
			// on the host path rather than probing a dead link again.
			d.charge(errBucket, link.CommandLatency)
			host, st.HostFallback = true, true
			lastErr = fmt.Errorf("smartssd: p2p read of %q: %w", name, faults.ErrLinkDown)
			continue
		}
		var flashT time.Duration
		var err error
		out, flashT, err = d.SSD.ReadRecordsInto(name, off, stride, recs, slot, out)
		if err != nil {
			// A failed flash command still advances simulated time by its
			// reported setup cost, so retry storms are visible on the clock.
			d.charge(errBucket, flashT)
			if !errors.Is(err, faults.ErrTransientIO) {
				return out, st, err // permanent: out of range, not found
			}
			st.Transient++
			lastErr = err
			continue
		}
		// The P2P path pipelines flash access with link streaming; the
		// host path serializes them.
		linkT := link.Duration(length, commands)
		dur := flashT + linkT
		if !host {
			dur = max(flashT, linkT)
		}
		d.charge(readBucket, dur)
		d.Acct.AddBytes(readBucket, length)
		for i := 0; verify != nil && i < len(out) && err == nil; i++ {
			err = verify(out[i])
		}
		if err == nil {
			return out, st, nil
		}
		st.Corrupt++ // corrupted payload: re-read the clean extent
		lastErr = err
	}
	return out[:0], st, fmt.Errorf("smartssd: read of %d×%d bytes at %d of %q failed after %d attempts: %w",
		len(recs), stride, off, name, st.Attempts, lastErr)
}
