// Package wire is the one little-endian codec behind core's NSCP
// checkpoint and nn's model and optimizer blobs. The Reader treats its
// input as hostile: the first failure sticks (later reads return zero, so
// a decoder checks once, at Done) and a length field must be backed by
// the bytes that remain.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Writer appends fields to Buf.
type Writer struct{ Buf []byte }

func (w *Writer) U32(v uint32)  { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64)  { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// F32s appends xs with no length prefix.
func (w *Writer) F32s(xs []float32) {
	w.Buf = slices.Grow(w.Buf, 4*len(xs))
	for _, x := range xs {
		w.F32(x)
	}
}

// Blob appends a length-prefixed byte field.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Reader consumes buf front to back; what names the format in errors.
type Reader struct {
	what string
	buf  []byte
	off  int
	err  error
}

func NewReader(what string, buf []byte) *Reader { return &Reader{what: what, buf: buf} }

// Failf records a failure unless one is already recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s %s", r.what, fmt.Sprintf(format, args...))
	}
}

// Header consumes and checks a format's magic and version.
func (r *Reader) Header(magic, version uint32) {
	if got := r.U32(); got != magic {
		r.Failf("bad magic %#x", got)
	}
	if got := r.U32(); got != version {
		r.Failf("unsupported version %d", got)
	}
}

// next returns a view of the next n bytes, nil once the reader failed.
func (r *Reader) next(n int) []byte {
	if r.err == nil && n > len(r.buf)-r.off {
		r.Failf("truncated at offset %d", r.off)
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// uint reads an n-byte integer: zero once the reader has failed.
func (r *Reader) uint(n int) (v uint64) {
	for i, b := range r.next(n) {
		v |= uint64(b) << (8 * i)
	}
	return v
}

func (r *Reader) U32() uint32  { return uint32(r.uint(4)) }
func (r *Reader) U64() uint64  { return r.uint(8) }
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// F32s fills dst, which the caller sized from its own configuration.
func (r *Reader) F32s(dst []float32) {
	if b := r.next(4 * len(dst)); b != nil {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
}

// Skip consumes n ≥ 0 bytes the decoder has no use for.
func (r *Reader) Skip(n int) { r.next(n) }

// Count reads a length field bounded by max and by the bytes that remain
// at size bytes per element: a corrupt count never sizes an allocation.
func (r *Reader) Count(what string, max, size int) int {
	v := r.U32()
	if limit := min(int64(max), int64(len(r.buf)-r.off)/int64(size)); int64(v) > limit {
		r.Failf("%s count %d exceeds bound %d", what, v, limit)
		return 0
	}
	return int(v)
}

// Blob returns a view of a length-prefixed byte field.
func (r *Reader) Blob(what string) []byte {
	return r.next(r.Count(what, len(r.buf), 1))
}

// Done returns the first failure, or an error if input remains.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Failf("has %d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}
