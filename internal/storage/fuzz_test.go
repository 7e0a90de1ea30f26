package storage

import (
	"bytes"
	"errors"
	"testing"

	"nessa/internal/faults"
)

// FuzzReadRecordsInto drives ReadRecordsInto over contiguous and
// gathered reads of materialized and virtual objects, clean and with
// every read corrupted, into a nil, short or long destination. The
// materialized object is a window of a longer buffer, as a striped
// dataset's stripes are windows of one image. The payload must equal
// the stored bytes (or differ from them in the one flipped bit), a
// clean one-record read of the materialized object must be a view of
// them with no capacity past its length, any other payload must land
// in dst exactly when dst has room and never alias the stored bytes,
// and the charge must not depend on dst. An out-of-range record must
// be refused with faults.ErrOutOfRange.
func FuzzReadRecordsInto(f *testing.F) {
	f.Add(uint16(256), uint16(50), uint16(100), []byte(nil), false, false, uint8(0), uint64(1))
	f.Add(uint16(256), uint16(6), uint16(50), []byte{3, 0}, false, true, uint8(2), uint64(2))
	f.Add(uint16(4096), uint16(0), uint16(64), []byte{63, 1, 1, 7}, true, false, uint8(1), uint64(3))
	f.Add(uint16(100), uint16(100), uint16(0), []byte{0}, false, true, uint8(5), uint64(4))
	f.Fuzz(func(t *testing.T, size16, off16, stride16 uint16, list []byte, virtual, corrupt bool, dstMode uint8, seed uint64) {
		size := int64(size16 % 4097)
		off := int64(off16) % (size + 1)
		stride := int64(stride16 % 257)
		backing := make([]byte, size+64)
		for i := range backing {
			backing[i] = byte(uint64(i)*0x9E3779B97F4A7C15>>56) ^ byte(seed)
		}
		orig := bytes.Clone(backing)
		fill := func(at int64, buf []byte) { copy(buf, orig[at:]) }
		drive := func() *SSD {
			s := newTestSSD(t)
			if virtual {
				if err := s.PutVirtual("obj", size, fill); err != nil {
					t.Fatal(err)
				}
			} else if _, err := s.Write("obj", backing[:size]); err != nil {
				t.Fatal(err)
			}
			if corrupt {
				s.SetInjector(faults.NewInjector(faults.Profile{Seed: seed, CorruptRate: 1}))
			}
			return s
		}

		// An empty list is the contiguous read of [off, off+stride);
		// otherwise each byte names a record, the last index being one
		// past the end.
		recs := oneRecord
		inRange := stride <= size-off
		if len(list) > 0 {
			avail := int64(1 << 8)
			if stride > 0 {
				avail = (size - off) / stride
			}
			recs = make([]int, len(list))
			for i, b := range list {
				recs[i] = int(int64(b) % (avail + 1))
				inRange = inRange && int64(recs[i]) < avail
			}
		}
		length := stride * int64(len(recs))
		var dst []byte
		switch dstMode % 3 {
		case 1:
			dst = make([]byte, 0, max(length-1, 0))
		case 2:
			dst = make([]byte, dstMode/3, length+int64(dstMode/3))
		}
		for i := range dst[:cap(dst)] {
			dst[:cap(dst)][i] = 0xEE
		}

		got, dur, err := drive().ReadRecordsInto("obj", off, stride, recs, dst)
		if !inRange {
			if !errors.Is(err, faults.ErrOutOfRange) {
				t.Fatalf("records %v of stride %d at %d in %d bytes: err = %v, want ErrOutOfRange", recs, stride, off, size, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, want, _ := drive().ReadRecordsInto("obj", off, stride, recs, nil); dur != want {
			t.Fatalf("charged %v, the same read with no destination %v", dur, want)
		}
		var want []byte
		for _, r := range recs {
			at := off + int64(r)*stride
			want = append(want, orig[at:at+stride]...)
		}
		flipped := bitsDiffering(got, want)
		if corrupt && length > 0 && flipped != 1 || (!corrupt || length == 0) && flipped != 0 {
			t.Fatalf("payload differs from the stored bytes in %d bits (corrupt %v, %d bytes)", flipped, corrupt, length)
		}
		if !virtual && !corrupt && len(recs) == 1 {
			if cap(got) != len(got) {
				t.Fatalf("a view carries capacity %d past its length %d", cap(got), len(got))
			}
			if at := off + int64(recs[0])*stride; length > 0 && &got[0] != &backing[at] {
				t.Fatal("a clean contiguous read is not a view of the stored bytes")
			}
			return
		}
		if length > 0 {
			if inDst := cap(dst) > 0 && &got[0] == &dst[:1][0]; inDst != (int64(cap(dst)) >= length) {
				t.Fatalf("payload in dst = %v with cap(dst) %d for a %d-byte read", inDst, cap(dst), length)
			}
		}
		clear(got)
		if !bytes.Equal(backing, orig) {
			t.Fatal("an assembled payload aliases the stored bytes")
		}
	})
}
