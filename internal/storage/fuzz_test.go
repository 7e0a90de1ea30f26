package storage

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"testing"
	"time"

	"nessa/internal/faults"
)

// FuzzReadRecordsInto drives ReadRecordsInto over contiguous and
// gathered reads of materialized and virtual objects, clean and with
// every read corrupted, into a nil, short or roomy slot and a payload
// list with or without room. The materialized object is a window of a
// longer buffer, as a striped dataset's stripes are windows of one
// image. There must be one payload per record, capacity clipped to the
// stride, in the caller's list when it has room. Together they must
// equal the stored records, or differ from them in exactly the one
// flipped bit of a corrupted read. A clean read of the materialized
// object writes nothing: every payload is a view of its stored record
// and the slot keeps its header and bytes. Any other read lands in the
// slot — in place when it has room, in a grown slot otherwise — one
// window per record, never aliasing the stored bytes. The charge and
// the injector's draws must not depend on the slot or the list. An
// out-of-range record must be refused with faults.ErrOutOfRange.
func FuzzReadRecordsInto(f *testing.F) {
	f.Add(uint16(256), uint16(50), uint16(100), []byte(nil), false, false, uint8(0), uint64(1))
	f.Add(uint16(256), uint16(6), uint16(50), []byte{3, 0}, false, true, uint8(2), uint64(2))
	f.Add(uint16(4096), uint16(0), uint16(64), []byte{63, 1, 1, 7}, true, false, uint8(1), uint64(3))
	f.Add(uint16(100), uint16(100), uint16(0), []byte{0}, false, true, uint8(5), uint64(4))
	f.Fuzz(func(t *testing.T, size16, off16, stride16 uint16, list []byte, virtual, corrupt bool, slotMode uint8, seed uint64) {
		size := int64(size16 % 4097)
		off := int64(off16) % (size + 1)
		stride := int64(stride16 % 257)
		backing := make([]byte, size+64)
		for i := range backing {
			backing[i] = byte(uint64(i)*0x9E3779B97F4A7C15>>56) ^ byte(seed)
		}
		orig := bytes.Clone(backing)
		fill := func(at int64, buf []byte) { copy(buf, orig[at:]) }
		drive := func() (*SSD, *faults.Injector) {
			s := newTestSSD(t)
			if virtual {
				if err := s.PutVirtual("obj", size, fill); err != nil {
					t.Fatal(err)
				}
			} else if _, err := s.Write("obj", backing[:size]); err != nil {
				t.Fatal(err)
			}
			var in *faults.Injector
			if corrupt {
				in = faults.NewInjector(faults.Profile{Seed: seed, CorruptRate: 1})
				s.SetInjector(in)
			}
			return s, in
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
		switch slotMode % 3 {
		case 1:
			dst = make([]byte, 0, max(length-1, 0))
		case 2:
			dst = make([]byte, slotMode/3, length+int64(slotMode/3))
		}
		for i := range dst[:cap(dst)] {
			dst[:cap(dst)][i] = 0xEE
		}
		slot := dst
		out := make([][]byte, 0, int(slotMode>>5))
		untouched := func() bool {
			return len(slot) == len(dst) && cap(slot) == cap(dst) && (cap(dst) == 0 || &slot[:1][0] == &dst[:1][0]) &&
				!slices.ContainsFunc(dst[:cap(dst)], func(b byte) bool { return b != 0xEE })
		}

		s, in := drive()
		got, dur, err := s.ReadRecordsInto("obj", off, stride, recs, &slot, out)
		if !inRange {
			if !errors.Is(err, faults.ErrOutOfRange) || len(got) != 0 || !untouched() {
				t.Fatalf("records %v of stride %d at %d in %d bytes: err = %v, %d payloads, want ErrOutOfRange, none and the slot untouched", recs, stride, off, size, err, len(got))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		twin, twinIn := drive()
		if _, want, _ := twin.ReadRecordsInto("obj", off, stride, recs, new([]byte), nil); dur != want {
			t.Fatalf("charged %v, the same read into an empty slot and list %v", dur, want)
		}
		if !maps.Equal(in.Counts(), twinIn.Counts()) || in.BackoffJitter(time.Hour) != twinIn.BackoffJitter(time.Hour) {
			t.Fatal("the injector's draws depend on the slot or the list")
		}
		if len(got) != len(recs) || cap(out) >= len(recs) && len(recs) > 0 && &got[0] != &out[:1][0] {
			t.Fatalf("%d payloads for %d records, or not in a list with room for them", len(got), len(recs))
		}
		var want []byte
		for i, r := range recs {
			at := off + int64(r)*stride
			want = append(want, orig[at:at+stride]...)
			if int64(len(got[i])) != stride || cap(got[i]) != len(got[i]) {
				t.Fatalf("payload %d has len %d, cap %d for a %d-byte record", i, len(got[i]), cap(got[i]), stride)
			}
		}
		flipped := bitsDiffering(bytes.Join(got, nil), want)
		if corrupt && length > 0 && flipped != 1 || (!corrupt || length == 0) && flipped != 0 {
			t.Fatalf("payloads differ from the stored records in %d bits (corrupt %v, %d bytes)", flipped, corrupt, length)
		}
		if !virtual && !corrupt {
			for i, r := range recs {
				if at := off + int64(r)*stride; stride > 0 && &got[i][0] != &backing[at] {
					t.Fatalf("clean payload %d is not a view of stored record %d", i, r)
				}
			}
			if !untouched() {
				t.Fatal("a clean read wrote into the slot")
			}
			return
		}
		if length > 0 {
			kept := cap(dst) > 0 && &slot[:1][0] == &dst[:1][0]
			if kept != (int64(cap(dst)) >= length) || int64(cap(slot)) < length {
				t.Fatalf("slot kept = %v with cap %d for a %d-byte read (now cap %d)", kept, cap(dst), length, cap(slot))
			}
			for i, p := range got {
				if stride > 0 && &p[0] != &slot[:length][int64(i)*stride] {
					t.Fatalf("written payload %d is not window %d of the slot", i, i)
				}
			}
		}
		for _, p := range got {
			clear(p)
		}
		if !bytes.Equal(backing, orig) {
			t.Fatal("a written payload aliases the stored bytes")
		}
	})
}
